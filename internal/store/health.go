package store

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"
)

// BreakerState is the circuit-breaker state of one cluster node.
type BreakerState int

const (
	// BreakerClosed: the node is believed healthy; operations and probes
	// flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the node tripped on consecutive transient failures;
	// availability probes are answered "down" locally (no ping storm)
	// until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed and exactly one probe is being
	// allowed through to test the node; concurrent probes are still
	// short-circuited.
	BreakerHalfOpen
)

// String renders the state for logs and CLI output.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// HealthConfig configures a cluster's per-node circuit breaker.
type HealthConfig struct {
	// TripAfter is the number of consecutive transient failures that trip
	// a node's breaker open. Zero or negative disables the breaker
	// (failures are still counted, so health snapshots stay informative).
	TripAfter int
	// Cooldown is how long a tripped breaker stays open before a single
	// half-open probe is allowed through. Zero means 5s.
	Cooldown time.Duration
}

// cooldown returns the effective open→half-open delay.
func (c HealthConfig) cooldown() time.Duration {
	if c.Cooldown <= 0 {
		return 5 * time.Second
	}
	return c.Cooldown
}

// NodeHealth is a snapshot of one node's failure-tracking state: breaker
// state plus the counters that make degraded operation visible (probe
// failures, breaker short-circuits), and the node's read latency estimate.
type NodeHealth struct {
	// Node is the cluster node index.
	Node int
	// ID is the node identifier.
	ID string
	// State is the breaker state at snapshot time.
	State BreakerState
	// ConsecutiveFailures counts transient failures since the last
	// success; TripAfter of these open the breaker.
	ConsecutiveFailures int
	// Successes and Failures count health observations (per operation or
	// per node batch, not per shard).
	Successes, Failures uint64
	// ProbeFailures counts Available() pings the node failed.
	ProbeFailures uint64
	// BreakerSkips counts probes short-circuited by an open breaker
	// (each one is a ping the cluster did not have to pay for).
	BreakerSkips uint64
	// Latency estimates how long the node takes to answer a get batch,
	// smoothed over the batches it answered; zero until it answered one.
	// Reads list a node whose estimate is slow (see Slow) last.
	Latency time.Duration
}

// nodeHealth is the mutable per-node record behind a NodeHealth snapshot.
type nodeHealth struct {
	state         BreakerState
	consecutive   int
	successes     uint64
	failures      uint64
	probeFailures uint64
	breakerSkips  uint64
	openedAt      time.Time
	probing       bool
	// heard is set while the node's last observation was an authoritative
	// answer: Probe then answers "up" from memory. A transient failure, and
	// Fail/Heal/HealAll, clear it; a node never observed starts without it.
	heard bool
	// latency is the get-batch latency estimate (NodeHealth.Latency) and
	// sampled when it last took a sample, or was last handed out for one.
	latency time.Duration
	sampled time.Time
}

// healthTracker tracks per-node failure history for a cluster. All methods
// are safe for concurrent use and nil-safe (a nil tracker is a no-op), so
// cluster paths can call it unconditionally.
type healthTracker struct {
	mu    sync.Mutex
	cfg   HealthConfig
	nodes map[int]*nodeHealth
	now   func() time.Time // cooldowns, get-batch latencies and re-sampling run on it; a test hook
}

func newHealthTracker() *healthTracker {
	return &healthTracker{nodes: make(map[int]*nodeHealth), now: time.Now}
}

func (t *healthTracker) configure(cfg HealthConfig) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cfg = cfg
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
// node i. A positive latency is how long an authoritative get batch took:
// it is folded into the node's estimate, each sample weighing half.
func (t *healthTracker) observe(i int, err error, latency time.Duration) {
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
		t.recordFailure(h)
		return
	}
	t.recordSuccess(h)
	if latency > 0 {
		if h.latency == 0 {
			h.latency = latency
		} else {
			h.latency = (h.latency + latency) / 2
		}
		h.sampled = t.now()
	}
}

// recordSuccess resets the node to closed. Caller holds t.mu.
func (t *healthTracker) recordSuccess(h *nodeHealth) {
	h.successes++
	h.consecutive = 0
	h.state = BreakerClosed
	h.probing = false
	h.heard = true
}

// recordFailure counts a transient failure and trips the breaker when the
// threshold is crossed. Caller holds t.mu.
func (t *healthTracker) recordFailure(h *nodeHealth) {
	h.failures++
	h.consecutive++
	h.heard = false
	if h.state == BreakerHalfOpen {
		// The half-open probe failed: back to open with a fresh cooldown.
		h.state = BreakerOpen
		h.openedAt = t.now()
		h.probing = false
		return
	}
	if t.cfg.TripAfter > 0 && h.state == BreakerClosed && h.consecutive >= t.cfg.TripAfter {
		h.state = BreakerOpen
		h.openedAt = t.now()
	}
}

// doubt forgets what is remembered about node i's liveness, so the next
// Probe asks the node itself. Counters and breaker state are untouched.
func (t *healthTracker) doubt(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.node(i).heard = false
}

// The slow-node rule. A node is slow when its latency estimate is above
// slowFloor and above slowMultiple times the median estimate of the nodes
// observed so far; reads then list its rows last, so it is read only when the
// others cannot serve. Once every slowResample one read is handed the node as
// not slow, which reads it if the plan wants its rows and so takes a fresh
// sample.
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

// classify filters nodes down to the ones a Probe has to ping - those whose
// last observation was not an authoritative answer - and names the ones that
// are slow, nil when none is. Since only a success sets heard and every
// failure clears it, a node that is not doubted has a closed breaker. A slow
// node due a fresh sample is left out of slow, and its clock restarted, so
// one read per slowResample reads it.
func (t *healthTracker) classify(nodes []int) (ask []int, slow map[int]bool) {
	if t == nil {
		return nodes, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	overFloor := false
	for _, i := range nodes {
		h, ok := t.nodes[i]
		if !ok || !h.heard {
			ask = append(ask, i)
		} else if h.latency > slowFloor {
			overFloor = true
		}
	}
	if !overFloor {
		return ask, nil
	}
	var ests []time.Duration
	for _, h := range t.nodes {
		if h.latency > 0 {
			ests = append(ests, h.latency)
		}
	}
	median := medianLatency(ests)
	now := t.now()
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
	return ask, slow
}

// gateProbe decides whether an Available() probe for node i may reach the
// node. While the breaker is open (and cooling down) it answers false
// locally and counts a BreakerSkip; once the cooldown elapses it lets
// exactly one caller through as the half-open probe.
func (t *healthTracker) gateProbe(i int) bool {
	if t == nil {
		return true
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cfg.TripAfter <= 0 {
		return true
	}
	h := t.node(i)
	switch h.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if t.now().Sub(h.openedAt) < t.cfg.cooldown() {
			h.breakerSkips++
			return false
		}
		h.state = BreakerHalfOpen
		h.probing = true
		return true
	case BreakerHalfOpen:
		if h.probing {
			h.breakerSkips++
			return false
		}
		h.probing = true
		return true
	}
	return true
}

// releaseProbe abandons a half-open probe claim without recording an
// outcome (the probe was cancelled by its context), so a later probe can
// go through.
func (t *healthTracker) releaseProbe(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.node(i).probing = false
}

// observeProbe records the result of an Available() probe that was allowed
// through the gate.
func (t *healthTracker) observeProbe(i int, up bool) {
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
	t.recordFailure(h)
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
		Node:                i,
		State:               h.state,
		ConsecutiveFailures: h.consecutive,
		Successes:           h.successes,
		Failures:            h.failures,
		ProbeFailures:       h.probeFailures,
		BreakerSkips:        h.breakerSkips,
		Latency:             h.latency,
	}
}

// SetHealthConfig configures the cluster's per-node circuit breaker.
// With TripAfter > 0, a node that fails that many consecutive operations
// or probes has its breaker tripped open: Available reports it down
// locally (no ping) until the cooldown elapses, then a single half-open
// probe decides between reset and re-trip. The default config (zero
// TripAfter) disables the breaker while still counting failures, so
// simulation-driven experiments keep their exact probe accounting.
func (c *Cluster) SetHealthConfig(cfg HealthConfig) {
	c.health.configure(cfg)
}

// Health returns a per-node health snapshot: breaker state, consecutive
// failures, probe failures, breaker skips, and the latency estimate.
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
