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

func TestBreakerTripHalfOpenReset(t *testing.T) {
	c := NewMemCluster(2)
	c.SetHealthConfig(HealthConfig{TripAfter: 3, Cooldown: time.Hour})
	now := time.Unix(1000, 0)
	c.health.now = func() time.Time { return now }

	if err := c.Fail(1); err != nil {
		t.Fatal(err)
	}
	// Three failed probes trip the breaker.
	for i := 0; i < 3; i++ {
		if c.Available(t.Context(), 1) {
			t.Fatal("failed node reported available")
		}
	}
	h, err := c.NodeHealth(1)
	if err != nil {
		t.Fatal(err)
	}
	if h.State != BreakerOpen || h.ProbeFailures != 3 {
		t.Fatalf("after trip: state=%v probeFailures=%d, want open/3", h.State, h.ProbeFailures)
	}

	// While open and cooling down, probes are answered locally: the node
	// never sees them, and each one counts as a breaker skip.
	if err := c.Heal(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if c.Available(t.Context(), 1) {
			t.Fatal("open breaker let a probe through")
		}
	}
	h, _ = c.NodeHealth(1)
	if h.BreakerSkips != 4 {
		t.Fatalf("breaker skips = %d, want 4", h.BreakerSkips)
	}

	// After the cooldown a single half-open probe goes through; the node
	// is healed, so the breaker resets to closed.
	now = now.Add(2 * time.Hour)
	if !c.Available(t.Context(), 1) {
		t.Fatal("half-open probe against healed node reported down")
	}
	h, _ = c.NodeHealth(1)
	if h.State != BreakerClosed || h.ConsecutiveFailures != 0 {
		t.Fatalf("after reset: %+v, want closed/0", h)
	}

	// The healthy node was never affected.
	h, _ = c.NodeHealth(0)
	if h.State != BreakerClosed || h.BreakerSkips != 0 {
		t.Fatalf("healthy node health = %+v", h)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	c := NewMemCluster(1)
	c.SetHealthConfig(HealthConfig{TripAfter: 1, Cooldown: time.Hour})
	now := time.Unix(0, 0)
	c.health.now = func() time.Time { return now }

	if err := c.Fail(0); err != nil {
		t.Fatal(err)
	}
	c.Available(t.Context(), 0) // trips
	now = now.Add(2 * time.Hour)
	// Half-open probe fails: breaker re-opens with a fresh cooldown.
	if c.Available(t.Context(), 0) {
		t.Fatal("failed node reported available")
	}
	h, _ := c.NodeHealth(0)
	if h.State != BreakerOpen {
		t.Fatalf("state after failed half-open probe = %v, want open", h.State)
	}
	// Still inside the fresh cooldown: skipped locally.
	now = now.Add(30 * time.Minute)
	c.Available(t.Context(), 0)
	h, _ = c.NodeHealth(0)
	if h.BreakerSkips == 0 {
		t.Error("probe inside fresh cooldown was not skipped")
	}
}

func TestBreakerOpsObserved(t *testing.T) {
	c := NewMemCluster(1)
	c.SetHealthConfig(HealthConfig{TripAfter: 2, Cooldown: time.Hour})
	if err := c.Fail(0); err != nil {
		t.Fatal(err)
	}
	id := ShardID{Object: "o", Row: 0}
	// Failed operations (not just probes) count toward the trip.
	for i := 0; i < 2; i++ {
		if _, err := c.Get(t.Context(), 0, id); !errors.Is(err, ErrNodeDown) {
			t.Fatalf("Get = %v, want ErrNodeDown", err)
		}
	}
	h, _ := c.NodeHealth(0)
	if h.State != BreakerOpen || h.Failures != 2 {
		t.Fatalf("after failed ops: %+v, want open/2", h)
	}
	// A successful op through the open breaker resets it.
	if err := c.Heal(0); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(t.Context(), 0, id, []byte{1}); err != nil {
		t.Fatal(err)
	}
	h, _ = c.NodeHealth(0)
	if h.State != BreakerClosed {
		t.Fatalf("state after successful op = %v, want closed", h.State)
	}
}

func TestHealthAuthoritativeAnswersAreHealthy(t *testing.T) {
	c := NewMemCluster(1)
	c.SetHealthConfig(HealthConfig{TripAfter: 1})
	// ErrNotFound is the node answering, not failing: never trips.
	if _, err := c.Get(t.Context(), 0, ShardID{Object: "absent"}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get = %v, want ErrNotFound", err)
	}
	h, _ := c.NodeHealth(0)
	if h.State != BreakerClosed || h.Failures != 0 || h.Successes == 0 {
		t.Fatalf("health after ErrNotFound = %+v, want closed success", h)
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
	c.SetHealthConfig(HealthConfig{TripAfter: 5})
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
	// Four dead shards in one batch count as one failure, so a single
	// batch cannot trip a breaker with TripAfter > 1.
	if h.Failures != 1 || h.State != BreakerClosed {
		t.Fatalf("batch failure accounting = %+v, want 1 failure, closed", h)
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

// pingedNode is a MemNode that counts the liveness pings it answers.
type pingedNode struct {
	*MemNode
	pings atomic.Int64
}

func (n *pingedNode) Available(ctx context.Context) bool {
	n.pings.Add(1)
	return n.MemNode.Available(ctx)
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

// TestLivenessProbeBehindOpenBreaker: a tripped node is doubted, and the
// doubt is answered by the breaker - down, locally - not by a ping.
func TestLivenessProbeBehindOpenBreaker(t *testing.T) {
	c := newPingedCluster(2)
	c.SetHealthConfig(HealthConfig{TripAfter: 1, Cooldown: time.Hour})
	now := time.Unix(1000, 0)
	c.health.now = func() time.Time { return now }
	if err := c.Fail(1); err != nil {
		t.Fatal(err)
	}
	c.probe(t, "tripping", []bool{true, false}, 1, 1)
	c.probe(t, "breaker open", []bool{true, false}, 0, 0)
	if h, _ := c.NodeHealth(1); h.State != BreakerOpen || h.BreakerSkips != 1 {
		t.Errorf("node 1 health = %+v, want open with one skip", h)
	}
	// Cooldown over, node healed: the half-open probe goes through and
	// re-admits it.
	if err := c.Heal(1); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Hour)
	c.probe(t, "half-open", []bool{true, true}, 0, 1)
	c.probe(t, "closed again", []bool{true, true}, 0, 0)
}
