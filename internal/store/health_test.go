package store

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestHealthAuthoritativeAnswersAreHealthy(t *testing.T) {
	c := NewMemCluster(1)
	// ErrNotFound is the node answering, not failing.
	if _, err := c.Get(t.Context(), 0, ShardID{Object: "absent"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get = %v, want ErrNotFound", err)
	}
	h, _ := c.NodeHealth(0)
	if h.Failures != 0 || h.Successes == 0 {
		t.Fatalf("health after ErrNotFound = %+v, want a success", h)
	}
	// Context cancellation is ignored entirely.
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	c.Get(ctx, 0, ShardID{Object: "absent"})
	h2, _ := c.NodeHealth(0)
	if h2.Failures != h.Failures || h2.Successes != h.Successes {
		t.Fatalf("cancelled op changed health: %+v -> %+v", h, h2)
	}
}

func TestHealthBatchCountsOncePerNode(t *testing.T) {
	c := NewMemCluster(2)
	if err := c.Fail(1); err != nil {
		t.Fatal(err)
	}
	refs := make([]ShardRef, 0, 8)
	for row := 0; row < 4; row++ {
		refs = append(refs,
			ShardRef{Node: 0, ID: ShardID{Object: "o", Row: row}},
			ShardRef{Node: 1, ID: ShardID{Object: "o", Row: row}})
	}
	c.GetBatch(t.Context(), refs)
	h, _ := c.NodeHealth(1)
	// Four dead shards in one batch count as one failure.
	if h.Failures != 1 {
		t.Fatalf("batch failure accounting = %+v, want 1 failure", h)
	}
}

func TestClusterSetFailedAllOrNothing(t *testing.T) {
	// Node 1 does not support fault injection: Fail(0, 1, 2) must leave
	// nodes 0 and 2 untouched and name the offender.
	c := NewCluster([]Node{NewMemNode("a"), plainNode{NewMemNode("b")}, NewMemNode("c")})
	err := c.Fail(0, 1, 2)
	if err == nil {
		t.Fatal("Fail with non-injectable target: want error")
	}
	if !strings.Contains(err.Error(), "b") {
		t.Errorf("error %q does not name the offending node", err)
	}
	for _, i := range []int{0, 2} {
		if !c.Available(t.Context(), i) {
			t.Errorf("node %d was failed despite the rejected Fail call", i)
		}
	}
	// Multiple offenders are all named.
	c2 := NewCluster([]Node{plainNode{NewMemNode("x")}, NewMemNode("m"), plainNode{NewMemNode("y")}})
	err = c2.Fail(0, 1, 2)
	if err == nil || !strings.Contains(err.Error(), "x") || !strings.Contains(err.Error(), "y") {
		t.Errorf("error %v does not name every offending node", err)
	}
	if !c2.Available(t.Context(), 1) {
		t.Error("injectable node was failed despite the rejected Fail call")
	}
}

func TestClusterHealthSnapshotIDs(t *testing.T) {
	c := NewMemCluster(3)
	hs := c.Health()
	if len(hs) != 3 {
		t.Fatalf("Health len = %d, want 3", len(hs))
	}
	for i, h := range hs {
		if h.Node != i || h.ID == "" {
			t.Errorf("Health[%d] = %+v, want node index and ID set", i, h)
		}
	}
	if _, err := c.NodeHealth(9); !errors.Is(err, ErrClusterTooSmall) {
		t.Errorf("NodeHealth out of range = %v, want ErrClusterTooSmall", err)
	}
}

// pingedNode is a MemNode that counts the liveness pings it answers. Given
// a clock - the cluster tracker's, in nanoseconds - each of its pings and get
// batches takes took on it; during, when set, runs inside each ping.
type pingedNode struct {
	*MemNode
	pings  atomic.Int64
	clock  *atomic.Int64
	took   time.Duration
	during func()
}

func (n *pingedNode) Available(ctx context.Context) bool {
	n.pings.Add(1)
	n.pass()
	if n.during != nil {
		n.during()
	}
	return n.MemNode.Available(ctx)
}

func (n *pingedNode) GetBatch(ctx context.Context, ids []ShardID) []ShardResult {
	n.pass()
	return n.MemNode.GetBatch(ctx, ids)
}

// pass moves the clock on by the time a call takes.
func (n *pingedNode) pass() {
	if n.clock != nil {
		n.clock.Add(int64(n.took))
	}
}

// pingedCluster is a fixed cluster of ping-counting MemNodes.
type pingedCluster struct {
	*Cluster
	nodes []*pingedNode
}

func newPingedCluster(size int) *pingedCluster {
	c := &pingedCluster{nodes: make([]*pingedNode, size)}
	nodes := make([]Node, size)
	for i := range nodes {
		c.nodes[i] = &pingedNode{MemNode: NewMemNode(fmt.Sprintf("mem-%d", i))}
		nodes[i] = c.nodes[i]
	}
	c.Cluster = NewCluster(nodes)
	return c
}

// pings returns what each node has answered since the last call.
func (c *pingedCluster) pings() []int64 {
	out := make([]int64, len(c.nodes))
	for i, n := range c.nodes {
		out[i] = n.pings.Swap(0)
	}
	return out
}

// probe runs one Probe of every node and checks its answer and what it cost.
func (c *pingedCluster) probe(t *testing.T, what string, wantUp []bool, wantPings ...int64) {
	t.Helper()
	all := make([]int, len(c.nodes))
	want := make(map[int]bool, len(c.nodes))
	for i := range all {
		all[i], want[i] = i, wantUp[i]
	}
	if up := c.Probe(t.Context(), all).Up; !maps.Equal(up, want) {
		t.Errorf("%s: Probe = %v, want %v", what, up, want)
	}
	if got := c.pings(); !slices.Equal(got, wantPings) {
		t.Errorf("%s: pings per node = %v, want %v", what, got, wantPings)
	}
}

// TestLivenessProbeRemembersTraffic pins what a Probe costs: a ping for every
// node never heard from, none for a node whose last observation was an
// answer (success or not-found), one for the node a batch just failed on
// until it answers again - and Available, the operator's question, always
// pings.
func TestLivenessProbeRemembersTraffic(t *testing.T) {
	allUp := []bool{true, true, true}
	c := newPingedCluster(3)
	c.probe(t, "never observed", allUp, 1, 1, 1)
	c.probe(t, "after a ping round", allUp, 0, 0, 0)

	// Fresh cluster: the traffic itself is the observation. Nodes 0 and 1
	// answer a put, node 2 answers "not found" - all three are up.
	c = newPingedCluster(3)
	id := ShardID{Object: "o", Row: 0}
	for i, err := range c.PutBatch(t.Context(), []ShardRef{{Node: 0, ID: id}, {Node: 1, ID: id}}, [][]byte{{1}, {2}}) {
		if err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	if _, err := c.Get(t.Context(), 2, id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get = %v, want ErrNotFound", err)
	}
	c.probe(t, "after traffic", allUp, 0, 0, 0)

	// Node 1 dies behind the cluster's back. Memory still says up; the batch
	// that finds out doubts it, and from then on it alone is pinged.
	c.nodes[1].SetFailed(true)
	c.probe(t, "died unnoticed", allUp, 0, 0, 0)
	res := c.GetBatch(t.Context(), []ShardRef{{Node: 0, ID: id}, {Node: 1, ID: id}})
	if res[0].Err != nil || !errors.Is(res[1].Err, ErrNodeDown) {
		t.Fatalf("GetBatch errs = %v, %v; want nil, ErrNodeDown", res[0].Err, res[1].Err)
	}
	oneDown := []bool{true, false, true}
	c.probe(t, "found out", oneDown, 0, 1, 0)
	c.probe(t, "still down", oneDown, 0, 1, 0)
	c.nodes[1].SetFailed(false)
	c.probe(t, "back", allUp, 0, 1, 0)
	c.probe(t, "re-admitted", allUp, 0, 0, 0)

	// Available never answers from memory.
	if !c.Available(t.Context(), 0) {
		t.Error("Available(0) = false on a healthy node")
	}
	if got := c.pings(); !slices.Equal(got, []int64{1, 0, 0}) {
		t.Errorf("Available pinged %v, want one ping of node 0", got)
	}
}

// TestLivenessFailHealAreToldToTheCluster pins the fault-injection half of
// the contract: Fail(i) is excluded by the very next Probe with no read spent
// on finding out, Heal(i) and HealAll are re-admitted by the next Probe.
func TestLivenessFailHealAreToldToTheCluster(t *testing.T) {
	c := newPingedCluster(3)
	c.probe(t, "never observed", []bool{true, true, true}, 1, 1, 1)
	if err := c.Fail(1, 2); err != nil {
		t.Fatal(err)
	}
	c.probe(t, "Fail(1, 2)", []bool{true, false, false}, 0, 1, 1)
	if err := c.Heal(1); err != nil {
		t.Fatal(err)
	}
	c.probe(t, "Heal(1)", []bool{true, true, false}, 0, 1, 1)
	c.HealAll()
	c.probe(t, "HealAll", []bool{true, true, true}, 1, 1, 1)
	c.probe(t, "settled", []bool{true, true, true}, 0, 0, 0)
	if reads := c.TotalStats().Reads; reads != 0 {
		t.Errorf("%d reads were spent finding out", reads)
	}
}

// TestLivenessUnobservableDoesNotDoubt: a withdrawn request says nothing
// about whether the node is up, so it does not make the next Probe ping.
func TestLivenessUnobservableDoesNotDoubt(t *testing.T) {
	c := newPingedCluster(2)
	c.probe(t, "never observed", []bool{true, true}, 1, 1)
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	refs := []ShardRef{{Node: 0, ID: ShardID{Object: "o"}}, {Node: 1, ID: ShardID{Object: "o"}}}
	for i, res := range c.GetBatch(ctx, refs) {
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("cancelled read %d: err = %v, want context.Canceled", i, res.Err)
		}
	}
	expired, cancel := context.WithDeadline(t.Context(), time.Unix(1, 0))
	defer cancel()
	for i, err := range c.PutBatch(expired, refs, [][]byte{{1}, {2}}) {
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("expired write %d: err = %v, want context.DeadlineExceeded", i, err)
		}
	}
	c.probe(t, "after a cancelled read and an expired write", []bool{true, true}, 0, 0)
}

// clockedNode is a MemNode whose get batches take a set time on the cluster
// tracker's clock, which the test owns.
type clockedNode struct {
	*MemNode
	now     *time.Time
	latency time.Duration
}

func (n *clockedNode) GetBatch(ctx context.Context, ids []ShardID) []ShardResult {
	*n.now = n.now.Add(n.latency)
	return n.MemNode.GetBatch(ctx, ids)
}

// TestLivenessSlowNodeRule pins the slow-node rule on a clock the test moves:
// a node is slow when its get-batch estimate is above slowMultiple times the
// median and above slowFloor; a slow node is handed to one Probe - and so to
// one read - as not slow every slowResample; a cancelled and a failed batch
// take no sample. Nodes are read one at a time, so each batch's latency is
// exactly its node's.
func TestLivenessSlowNodeRule(t *testing.T) {
	const fast = 100 * time.Microsecond
	now := time.Unix(1000, 0)
	latencies := []time.Duration{fast, fast, fast, 2 * time.Millisecond, 10 * time.Millisecond}
	nodes := make([]Node, len(latencies))
	clocked := make([]*clockedNode, len(latencies))
	for i, l := range latencies {
		clocked[i] = &clockedNode{MemNode: NewMemNode(fmt.Sprintf("mem-%d", i)), now: &now, latency: l}
		nodes[i] = clocked[i]
	}
	c := NewCluster(nodes)
	c.health.now = func() time.Time { return now }
	all := []int{0, 1, 2, 3, 4}
	read := func(ctx context.Context, node int) error {
		return c.GetBatch(ctx, []ShardRef{{Node: node, ID: ShardID{Object: "o"}}})[0].Err
	}
	slowSet := func(what string, want ...int) {
		t.Helper()
		live := c.Probe(t.Context(), all)
		wantSlow := make(map[int]bool)
		for _, i := range want {
			wantSlow[i] = true
		}
		if !maps.Equal(live.Slow, wantSlow) {
			t.Errorf("%s: slow = %v, want %v", what, live.Slow, wantSlow)
		}
		for i := range all {
			if !live.Up[i] {
				t.Errorf("%s: node %d reported down", what, i)
			}
		}
	}
	estimate := func(node int) time.Duration {
		h, _ := c.NodeHealth(node)
		return h.Latency
	}

	slowSet("never read")
	for _, i := range all {
		if err := read(t.Context(), i); !errors.Is(err, ErrNotFound) {
			t.Fatalf("read of node %d = %v, want ErrNotFound (an answer)", i, err)
		}
	}
	// Node 3 is 20x the median but under the floor; node 4 is over both.
	slowSet("after one read each", 4)
	if got := estimate(4); got != 10*time.Millisecond {
		t.Errorf("node 4 estimate = %v, want 10ms (its one sample)", got)
	}
	if got := Slow(c.Health()); !slices.Equal(got, []bool{false, false, false, false, true}) {
		t.Errorf("Slow(Health()) = %v, want only node 4", got)
	}

	// Re-sampling: the slow node is handed out once per slowResample.
	now = now.Add(slowResample - time.Nanosecond)
	slowSet("just before the re-sample", 4)
	now = now.Add(time.Nanosecond)
	slowSet("re-sample due: handed out as not slow")
	slowSet("the next Probe, before the sample lands", 4)
	clocked[4].latency = fast
	if err := read(t.Context(), 4); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	if got, want := estimate(4), (10*time.Millisecond+fast)/2; got != want {
		t.Errorf("node 4 estimate after a fast sample = %v, want %v (each sample weighs half)", got, want)
	}
	slowSet("one fast sample", 4)

	// A cancelled batch and a failed batch take no sample.
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if err := read(ctx, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled read = %v", err)
	}
	clocked[1].SetFailed(true)
	if err := read(t.Context(), 1); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("failed read = %v", err)
	}
	clocked[1].SetFailed(false)
	if e0, e1 := estimate(0), estimate(1); e0 != fast || e1 != fast {
		t.Errorf("estimates after a cancelled and a failed batch = %v, %v; want %v unchanged", e0, e1, fast)
	}

	// The second fast sample, one slowResample later, brings node 4 back.
	now = now.Add(slowResample)
	slowSet("re-sample due again")
	if err := read(t.Context(), 4); !errors.Is(err, ErrNotFound) {
		t.Fatal(err)
	}
	slowSet("two fast samples")

	// Slow is relative: every node as slow as node 4 was makes none slow.
	for i := range clocked {
		clocked[i].latency = 10 * time.Millisecond
	}
	for range 4 {
		for _, i := range all {
			if err := read(t.Context(), i); !errors.Is(err, ErrNotFound) {
				t.Fatal(err)
			}
		}
	}
	slowSet("every node equally slow")
}

// TestLivenessSilentNodeRule pins the silent-node rule on a clock the test
// moves: a transient failure - a ping or a get batch - as slow as a slow
// node's batch makes the node silent, and Probe reports it down from memory
// but for one ping every slowResample, which restarts the clock; a Probe
// while that ping is out still reports it down. A fast failure is never
// remembered; Fail, Heal, HealAll and an answer clear the state; and
// Available always pings.
func TestLivenessSilentNodeRule(t *testing.T) {
	const stall = 500 * time.Millisecond // a timed-out call: far over slowFloor
	c := newPingedCluster(3)
	var clock atomic.Int64
	clock.Store(time.Unix(1000, 0).UnixNano())
	c.health.now = func() time.Time { return time.Unix(0, clock.Load()) }
	for _, n := range c.nodes {
		n.clock = &clock
	}
	wait := func(d time.Duration) { clock.Add(int64(d)) }
	allUp, oneDown := []bool{true, true, true}, []bool{true, false, true}
	c.probe(t, "never observed", allUp, 1, 1, 1)

	// A fast failure, a ping's or a batch's, is never remembered.
	if err := c.Fail(1); err != nil {
		t.Fatal(err)
	}
	c.probe(t, "fast failed ping", oneDown, 0, 1, 0)
	c.probe(t, "fast failed ping again", oneDown, 0, 1, 0)
	id := ShardID{Object: "o"}
	if _, err := c.Get(t.Context(), 1, id); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Get = %v, want ErrNodeDown", err)
	}
	c.probe(t, "fast failed batch", oneDown, 0, 1, 0)

	// A slow failed ping makes the node silent: no ping until slowResample
	// after it, then exactly one, which restarts the clock.
	c.nodes[1].took = stall
	c.probe(t, "slow failed ping", oneDown, 0, 1, 0)
	c.probe(t, "silent", oneDown, 0, 0, 0)
	wait(slowResample - time.Nanosecond)
	c.probe(t, "just before the re-ask", oneDown, 0, 0, 0)
	wait(time.Nanosecond)
	c.probe(t, "re-ask due", oneDown, 0, 1, 0)
	wait(slowResample - time.Nanosecond)
	c.probe(t, "the clock restarted", oneDown, 0, 0, 0)

	// A Probe while the re-ask is out reports the node down, and pings
	// nothing.
	wait(time.Nanosecond)
	c.nodes[1].during = func() {
		c.nodes[1].during = nil
		if up := c.Probe(t.Context(), []int{0, 1, 2}).Up; up[1] {
			t.Error("a Probe during the re-ask reported the silent node up")
		}
	}
	c.probe(t, "re-ask with a Probe alongside", oneDown, 0, 1, 0)

	// Available always pings, silent or not.
	if c.Available(t.Context(), 1) {
		t.Error("Available(1) = true on a failed node")
	}
	c.probe(t, "after Available", oneDown, 0, 1, 0)

	// A slow failed get batch makes the node silent too.
	c.nodes[1].took = 0
	if err := c.Heal(1); err != nil {
		t.Fatal(err)
	}
	c.probe(t, "healed", allUp, 0, 1, 0)
	c.nodes[1].took = stall
	c.nodes[1].SetFailed(true) // behind the cluster's back
	if _, err := c.Get(t.Context(), 1, id); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("Get = %v, want ErrNodeDown", err)
	}
	c.probe(t, "slow failed batch", oneDown, 0, 0, 0)

	// Fail, Heal and HealAll each clear it: the next Probe pings.
	c.nodes[1].took = 0
	if err := c.Fail(1); err != nil {
		t.Fatal(err)
	}
	c.probe(t, "Fail", oneDown, 0, 1, 0)
	silence := func() {
		t.Helper()
		c.nodes[1].took = stall
		c.probe(t, "silenced", oneDown, 0, 1, 0)
		c.probe(t, "silent", oneDown, 0, 0, 0)
		c.nodes[1].took = 0
	}
	silence()
	if err := c.Heal(1); err != nil {
		t.Fatal(err)
	}
	c.probe(t, "Heal", allUp, 0, 1, 0)
	c.nodes[1].SetFailed(true)
	c.Available(t.Context(), 1) // doubts it, fast
	c.pings()
	silence()
	c.HealAll()
	c.probe(t, "HealAll", allUp, 1, 1, 1)

	// So does an answer to Available: the node is heard again.
	c.nodes[1].SetFailed(true)
	c.Available(t.Context(), 1)
	c.pings()
	silence()
	c.nodes[1].SetFailed(false)
	if !c.Available(t.Context(), 1) {
		t.Error("Available(1) = false on a healthy node")
	}
	c.pings()
	c.probe(t, "answered", allUp, 0, 0, 0)
	if h, _ := c.NodeHealth(1); h.Latency != 0 {
		t.Errorf("node 1 latency = %v; failures must take no sample", h.Latency)
	}
}
