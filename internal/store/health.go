package store

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"
)

// NodeHealth is a snapshot of one node's failure-tracking state: the counters
// that make degraded operation visible, and the node's read latency estimate.
type NodeHealth struct {
	// Node is the cluster node index.
	Node int
	// ID is the node identifier.
	ID string
	// Successes and Failures count health observations (per operation or
	// per node batch, not per shard).
	Successes, Failures uint64
	// ProbeFailures counts Available() pings the node failed.
	ProbeFailures uint64
	// Latency estimates how long the node takes to answer a get batch,
	// smoothed over the batches it answered; zero until it answered one.
	// Reads list a node whose estimate is slow (see Slow) last.
	Latency time.Duration
}

// nodeHealth is the mutable per-node record behind a NodeHealth snapshot.
type nodeHealth struct {
	successes     uint64
	failures      uint64
	probeFailures uint64
	// heard is set while the node's last observation was an authoritative
	// answer: Probe then answers "up" from memory. A transient failure, and
	// Fail/Heal/HealAll, clear it; a node never observed starts without it.
	heard bool
	// silent is set while the node's last observation was a transient
	// failure as slow as a slow node's batch: Probe then answers "down" from
	// memory, but for one re-ask per slowResample. An answer, a fast
	// failure, and Fail/Heal/HealAll clear it.
	silent bool
	// failed is set while Fail holds the node failed, until Heal or HealAll:
	// the injected failure lasts, so no retry of it can succeed.
	failed bool
	// latency is the get-batch latency estimate (NodeHealth.Latency).
	// sampled is when the node last took a sample or went silent, or was
	// last handed out for a fresh one: the clock of both re-asks.
	latency time.Duration
	sampled time.Time
}

// healthTracker tracks per-node failure history for a cluster. All methods
// are safe for concurrent use and nil-safe (a nil tracker is a no-op), so
// cluster paths can call it unconditionally.
type healthTracker struct {
	mu    sync.Mutex
	nodes map[int]*nodeHealth
	now   func() time.Time // latencies and re-asks run on it; a test hook
}

func newHealthTracker() *healthTracker {
	return &healthTracker{nodes: make(map[int]*nodeHealth), now: time.Now}
}

// node returns the record for index i, creating it on first use. Caller
// holds t.mu.
func (t *healthTracker) node(i int) *nodeHealth {
	h, ok := t.nodes[i]
	if !ok {
		h = &nodeHealth{}
		t.nodes[i] = h
	}
	return h
}

// transientFailure reports whether err should count against node health:
// true for transient (ErrNodeDown-class) failures, false for authoritative
// answers (nil, ErrNotFound, ErrCorrupt — the node responded) and for
// context cancellation (the request was withdrawn; says nothing about the
// node).
func transientFailure(err error) (failure, observable bool) {
	if err == nil {
		return false, true
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false, false
	}
	if errors.Is(err, ErrNodeDown) {
		return true, true
	}
	return false, true
}

// observe records the outcome of one operation (or one node batch) against
// node i, which took elapsed - zero when not timed. A get batch the node
// answered is folded into its latency estimate, each sample weighing half; a
// failure as slow as a slow node's batch makes it silent.
func (t *healthTracker) observe(i int, err error, elapsed time.Duration) {
	if t == nil {
		return
	}
	failure, observable := transientFailure(err)
	if !observable {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.node(i)
	if failure {
		t.recordFailure(h, elapsed)
		return
	}
	t.recordSuccess(h)
	if elapsed > 0 {
		if h.latency == 0 {
			h.latency = elapsed
		} else {
			h.latency = (h.latency + elapsed) / 2
		}
		h.sampled = t.now()
	}
}

// recordSuccess counts an answer. Caller holds t.mu.
func (t *healthTracker) recordSuccess(h *nodeHealth) {
	h.successes++
	h.heard, h.silent = true, false
}

// recordFailure counts a transient failure that took elapsed, and starts the
// silent clock when it was slow. Caller holds t.mu.
func (t *healthTracker) recordFailure(h *nodeHealth, elapsed time.Duration) {
	h.failures++
	h.heard = false
	h.silent = slowAgainst(elapsed, t.median())
	if h.silent {
		h.sampled = t.now()
	}
}

// holdsOff reports whether an operation asks node i no more once it failed:
// the node is held silent (its last observation was a transient failure as
// slow as a slow node's batch), or Fail holds it failed.
func (t *healthTracker) holdsOff(i int) bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.nodes[i]
	return ok && (h.silent || h.failed)
}

// inject records that Fail (failed) or Heal (!failed) set node i's injected
// failure, and forgets what is remembered about its liveness, so the next
// Probe asks the node itself. Counters are untouched.
func (t *healthTracker) inject(i int, failed bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.node(i)
	h.heard, h.silent, h.failed = false, false, failed
}

// The slow-node rule. A node is slow when its latency estimate is above
// slowFloor and above slowMultiple times the median estimate of the nodes
// observed so far; reads then list its rows last, so it is read only when the
// others cannot serve. Once every slowResample one read is handed the node as
// not slow, which reads it if the plan wants its rows and so takes a fresh
// sample. A node whose last transient failure took that long is silent, and
// reported down the same way: once every slowResample one Probe pings it.
const (
	slowMultiple = 4
	slowFloor    = 3 * time.Millisecond
	slowResample = time.Second
)

// slowAgainst is the rule for one estimate against the median.
func slowAgainst(latency, median time.Duration) bool {
	return latency > slowFloor && latency > slowMultiple*median
}

// medianLatency sorts the positive estimates ests and returns their lower
// median.
func medianLatency(ests []time.Duration) time.Duration {
	if len(ests) == 0 {
		return 0
	}
	slices.Sort(ests)
	return ests[(len(ests)-1)/2]
}

// median is the lower median of the tracked nodes' estimates. Caller holds
// t.mu.
func (t *healthTracker) median() time.Duration {
	var ests []time.Duration
	for _, h := range t.nodes {
		if h.latency > 0 {
			ests = append(ests, h.latency)
		}
	}
	return medianLatency(ests)
}

// Slow reports, aligned with health, which nodes the slow-node rule marks
// slow by their estimates, re-sampling aside.
func Slow(health []NodeHealth) []bool {
	var ests []time.Duration
	for _, h := range health {
		if h.Latency > 0 {
			ests = append(ests, h.Latency)
		}
	}
	median := medianLatency(ests)
	slow := make([]bool, len(health))
	for i, h := range health {
		slow[i] = slowAgainst(h.Latency, median)
	}
	return slow
}

// classify sorts nodes for a Probe: the ones it has to ping - never observed,
// or last observed failing, fast or as a silent node due its re-ask - the
// silent ones it reports down from memory, and the heard ones that are slow,
// nil when none is. A silent or slow node due a re-ask has its clock
// restarted as it is handed out, so one Probe per slowResample asks it.
func (t *healthTracker) classify(nodes []int) (ask, silent []int, slow map[int]bool) {
	if t == nil {
		return nodes, nil, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.now()
	overFloor := false
	for _, i := range nodes {
		h, ok := t.nodes[i]
		switch {
		case !ok || !h.heard && !h.silent:
			ask = append(ask, i)
		case h.silent && now.Sub(h.sampled) >= slowResample:
			h.sampled = now
			ask = append(ask, i)
		case h.silent:
			silent = append(silent, i)
		case h.latency > slowFloor:
			overFloor = true
		}
	}
	if !overFloor {
		return ask, silent, nil
	}
	median := t.median()
	for _, i := range nodes {
		h, ok := t.nodes[i]
		if !ok || !h.heard || !slowAgainst(h.latency, median) {
			continue
		}
		if now.Sub(h.sampled) >= slowResample {
			h.sampled = now
			continue
		}
		if slow == nil {
			slow = make(map[int]bool)
		}
		slow[i] = true
	}
	return ask, silent, slow
}

// observeProbe records the answer of an Available() ping that took elapsed.
func (t *healthTracker) observeProbe(i int, up bool, elapsed time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h := t.node(i)
	if up {
		t.recordSuccess(h)
		return
	}
	h.probeFailures++
	t.recordFailure(h, elapsed)
}

// snapshot returns the record for node i (zero value if never observed).
func (t *healthTracker) snapshot(i int) NodeHealth {
	if t == nil {
		return NodeHealth{Node: i}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.nodes[i]
	if !ok {
		return NodeHealth{Node: i}
	}
	return NodeHealth{
		Node:          i,
		Successes:     h.successes,
		Failures:      h.failures,
		ProbeFailures: h.probeFailures,
		Latency:       h.latency,
	}
}

// Health returns a per-node health snapshot: success, failure and probe
// failure counters, and the latency estimate.
func (c *Cluster) Health() []NodeHealth {
	c.mu.RLock()
	nodes := append([]Node(nil), c.nodes...)
	c.mu.RUnlock()
	out := make([]NodeHealth, len(nodes))
	for i, n := range nodes {
		out[i] = c.health.snapshot(i)
		out[i].ID = n.ID()
	}
	return out
}

// NodeHealth returns the health snapshot of one node.
func (c *Cluster) NodeHealth(i int) (NodeHealth, error) {
	n, err := c.Node(i)
	if err != nil {
		return NodeHealth{}, err
	}
	h := c.health.snapshot(i)
	h.ID = n.ID()
	return h, nil
}
