// Package faults is a deterministic, seeded fault-injection framework for
// the storage substrate. Its centerpiece is ChaosNode, a store.Node
// wrapper that perturbs an inner node according to a
// scriptable Schedule: latency distributions, probabilistic per-operation
// errors, detected bit-flip corruption, torn batches (a prefix of the
// batch lands, the rest fails), and partitions — including flapping ones —
// over windows of the operation counter. Crash-stop injection via
// store.FaultInjector stays available as one schedule among many.
//
// Everything is replayable: a Schedule carries a seed, every random
// decision is drawn from a rand.Rand derived from it, and windows are
// expressed in operation counts, not wall time. Running the same serial
// workload against the same schedule injects the same faults. Nodes in one
// test can share a Clock so their windows advance together, which lets a
// generator bound how many nodes are faulty at any instant (see
// SoakSchedules).
//
// The same schedules drive faults over real TCP: wrap the node behind a
// transport.Server in a ChaosNode and every remote client experiences the
// injected latency, errors, and partitions end to end; ConnChaos
// additionally perturbs the transport itself (per-read latency and
// connection resets) via the server's connection-wrapper hook.
//
// On corruption: a node that can verify shard integrity reports bit rot by
// failing reads with store.ErrCorrupt (the DiskNode CRC contract). FaultCorrupt
// models exactly that — a read of a rotten shard fails with an error
// wrapping store.ErrCorrupt, driving the scrub/repair healing paths. Truly
// silent bit flips on an unverified store are indistinguishable from valid
// data by construction and are out of scope.
package faults

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// ErrInjected marks every error a ChaosNode fabricates, so tests and
// logging can tell injected faults from organic ones with errors.Is.
var ErrInjected = errors.New("faults: injected fault")

// Kind selects what a Rule injects.
type Kind int

const (
	// FaultLatency delays matched operations by Latency plus a uniform
	// random slice of Jitter.
	FaultLatency Kind = iota
	// FaultError fails matched operations with a transient error (wrapping
	// store.ErrNodeDown and ErrInjected), or with Err when set.
	FaultError
	// FaultCorrupt fails matched reads with an error wrapping
	// store.ErrCorrupt, modelling detected bit-flip corruption. In a batch
	// read, one random shard of the batch is affected.
	FaultCorrupt
	// FaultTorn tears matched batch operations: a random prefix of the
	// batch is applied to the inner node, the remaining shards fail with a
	// transient injected error. Non-batch operations are unaffected.
	FaultTorn
	// FaultPartition makes the node unreachable for matched operations:
	// they fail with a transient injected error and availability probes
	// report the node down. With Period set the partition flaps, toggling
	// on and off every Period ticks.
	FaultPartition
)

// String renders the kind for schedule descriptions.
func (k Kind) String() string {
	switch k {
	case FaultLatency:
		return "latency"
	case FaultError:
		return "error"
	case FaultCorrupt:
		return "corrupt"
	case FaultTorn:
		return "torn"
	case FaultPartition:
		return "partition"
	default:
		return "unknown"
	}
}

// OpMask selects which operations a Rule matches.
type OpMask uint

const (
	// OpGet matches reads (Get and GetBatch).
	OpGet OpMask = 1 << iota
	// OpPut matches writes (Put and PutBatch).
	OpPut
	// OpDelete matches deletes (Delete and DeleteBatch).
	OpDelete
	// OpPing matches availability probes.
	OpPing

	// OpData matches all data operations but not pings.
	OpData = OpGet | OpPut | OpDelete
	// OpAll matches everything.
	OpAll = OpData | OpPing
)

// String renders the mask for schedule descriptions.
func (m OpMask) String() string {
	if m == 0 || m == OpAll {
		return "all"
	}
	var parts []string
	for _, p := range []struct {
		bit  OpMask
		name string
	}{{OpGet, "get"}, {OpPut, "put"}, {OpDelete, "delete"}, {OpPing, "ping"}} {
		if m&p.bit != 0 {
			parts = append(parts, p.name)
		}
	}
	return strings.Join(parts, "+")
}

// Rule is one scripted fault: inject Kind into operations matching Ops
// while the node's tick counter is inside [From, To), with probability P
// per matched operation.
type Rule struct {
	// Kind selects the fault.
	Kind Kind
	// Ops selects the operations the rule applies to. Zero means all.
	Ops OpMask
	// From and To bound the rule to ticks in [From, To). To == 0 means
	// the rule never expires.
	From, To uint64
	// P is the per-operation probability the fault fires, in (0, 1].
	// Zero means 1 (always).
	P float64
	// Latency and Jitter shape FaultLatency delays: each matched
	// operation sleeps Latency plus a uniform random duration in
	// [0, Jitter).
	Latency, Jitter time.Duration
	// Period flaps a FaultPartition: the partition is active for Period
	// ticks, inactive for the next Period, and so on. Zero means solid.
	Period uint64
	// Err overrides the injected error cause for FaultError. Wrap
	// store.ErrNodeDown (or not) to control retryability.
	Err error
}

// String renders the rule for schedule descriptions and replay logs.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v ops=%v window=[%d,", r.Kind, r.Ops, r.From)
	if r.To == 0 {
		b.WriteString("inf)")
	} else {
		fmt.Fprintf(&b, "%d)", r.To)
	}
	if r.P > 0 && r.P < 1 {
		fmt.Fprintf(&b, " p=%.3f", r.P)
	}
	if r.Kind == FaultLatency {
		fmt.Fprintf(&b, " latency=%v", r.Latency)
		if r.Jitter > 0 {
			fmt.Fprintf(&b, "+%v", r.Jitter)
		}
	}
	if r.Period > 0 {
		fmt.Fprintf(&b, " flap=%d", r.Period)
	}
	return b.String()
}

// matches reports whether the rule applies to an operation of the given
// mask at the given tick, before any probability draw.
func (r Rule) matches(op OpMask, tick uint64) bool {
	ops := r.Ops
	if ops == 0 {
		ops = OpAll
	}
	if ops&op == 0 {
		return false
	}
	if tick < r.From || (r.To != 0 && tick >= r.To) {
		return false
	}
	if r.Period > 0 && ((tick-r.From)/r.Period)%2 == 1 {
		return false
	}
	return true
}

// Schedule scripts the faults of one node: a seed for the random draws and
// an ordered list of rules. The zero Schedule injects nothing.
type Schedule struct {
	// Seed drives every probabilistic decision. The same seed and the
	// same (serial) workload replay the same faults.
	Seed int64
	// Rules are evaluated in order against every operation; all matching
	// rules apply (latencies add, the first failing rule wins).
	Rules []Rule
}

// String renders the schedule as a replayable description.
func (s Schedule) String() string {
	if len(s.Rules) == 0 {
		return fmt.Sprintf("seed=%d (no rules)", s.Seed)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "seed=%d", s.Seed)
	for _, r := range s.Rules {
		fmt.Fprintf(&b, "\n  %v", r)
	}
	return b.String()
}

// Clock is a tick counter that several ChaosNodes can share so their
// schedule windows advance together; a generator can then guarantee that
// at most a bounded number of nodes are inside a fault window at any
// instant. The zero Clock is ready to use.
type Clock struct {
	ticks atomic.Uint64
}

// next returns the current tick and advances the clock.
func (c *Clock) next() uint64 {
	return c.ticks.Add(1) - 1
}

// Ticks returns the number of ticks consumed so far.
func (c *Clock) Ticks() uint64 {
	return c.ticks.Load()
}

// InjectionStats counts the faults a ChaosNode actually injected, for
// assertions and drill reports.
type InjectionStats struct {
	// Delayed counts operations that were latency-injected.
	Delayed uint64
	// Errors counts operations failed with an injected error.
	Errors uint64
	// Corruptions counts reads failed with injected corruption.
	Corruptions uint64
	// Torn counts batches torn partway.
	Torn uint64
	// PartitionDrops counts operations (including pings) dropped by an
	// active partition or crash-stop failure.
	PartitionDrops uint64
}
