package transport

import (
	"bytes"
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/faults"
	"github.com/secarchive/sec/internal/store"
)

// killFirstConns closes the first n accepted connections on their first
// read, a deterministic stand-in for a flaky network path.
type killFirstConns struct {
	mu        sync.Mutex
	remaining int
}

func (k *killFirstConns) wrap(c net.Conn) net.Conn {
	k.mu.Lock()
	kill := k.remaining > 0
	if kill {
		k.remaining--
	}
	k.mu.Unlock()
	if kill {
		return &dyingConn{Conn: c}
	}
	return c
}

type dyingConn struct{ net.Conn }

func (c *dyingConn) Read(p []byte) (int, error) {
	_ = c.Conn.Close()
	return 0, errors.New("killed by test")
}

// slowGets is a memory node whose get batches take delay while it is set.
type slowGets struct {
	*store.MemNode
	delay atomic.Int64 // nanoseconds
}

func (n *slowGets) GetBatch(ctx context.Context, ids []store.ShardID) []store.ShardResult {
	time.Sleep(time.Duration(n.delay.Load()))
	return n.MemNode.GetBatch(ctx, ids)
}

// swappedNode is a cluster node whose client the test can replace, keeping
// what the cluster has learnt of the node.
type swappedNode struct{ store.Node }

// The cluster is the one layer that re-issues a node's transient failures,
// so the retry tests drive a RemoteNode through a plain one-node cluster.
func TestRetryPolicySurvivesDyingConnections(t *testing.T) {
	mem := &slowGets{MemNode: store.NewMemNode("backing")}
	killer := &killFirstConns{remaining: 3}
	srv := NewServer(mem, WithConnWrapper(killer.wrap))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	// Three dying connections outlast the three attempts: each attempt's
	// fresh connection dies and the single stale-conn re-dial does not
	// apply, so the last failure is final.
	bare := NewRemoteNode("bare", addr.String(), WithTimeout(2*time.Second))
	id := store.ShardID{Object: "o", Row: 0}
	if err := store.NewCluster([]store.Node{bare}).Put(t.Context(), 0, id, []byte{1}); !errors.Is(err, store.ErrNodeDown) {
		t.Fatalf("Put past the attempts = %v, want ErrNodeDown", err)
	}
	_ = bare.Close()

	// Two dying connections leave the third attempt: the node is not held
	// silent, and its shard is re-issued. A failure is silent only when it
	// takes over four times the median latency estimate, so the node first
	// answers one get batch slowly: its estimate is then above a quarter of
	// the 2 s timeout, which bounds how long a failure can take, and no
	// failure is silent however slow the machine. The sample goes through a
	// client of its own, whose pooled connection the kills would miss.
	killer.mu.Lock()
	killer.remaining = 0
	killer.mu.Unlock()
	sampler := NewRemoteNode("sampler", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = sampler.Close() })
	node := &swappedNode{Node: sampler}
	cluster := store.NewCluster([]store.Node{node})
	mem.delay.Store(int64(600 * time.Millisecond))
	if _, err := cluster.Get(t.Context(), 0, store.ShardID{Object: "absent"}); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("the latency sample: %v", err)
	}
	mem.delay.Store(0)
	if h := cluster.Health()[0]; h.Latency < 600*time.Millisecond {
		t.Fatalf("latency estimate %v after a 600 ms get batch", h.Latency)
	}
	client := NewRemoteNode("retrying", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = client.Close() })
	node.Node = client
	killer.mu.Lock()
	killer.remaining = 2
	killer.mu.Unlock()
	if err := cluster.Put(t.Context(), 0, id, []byte{42}); err != nil {
		t.Fatalf("Put with retry: %v", err)
	}
	got, err := cluster.Get(t.Context(), 0, id)
	if err != nil || !bytes.Equal(got, []byte{42}) {
		t.Fatalf("Get with retry = %v, %v", got, err)
	}
}

func TestRetryPolicyDoesNotRetryServerAnswers(t *testing.T) {
	mem := store.NewMemNode("backing")
	srv := NewServer(mem)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewRemoteNode("r", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = client.Close() })
	cluster := store.NewCluster([]store.Node{client})

	// ErrNotFound is an authoritative server answer: exactly one request
	// must reach the node, not three.
	start := time.Now()
	if _, err := cluster.Get(t.Context(), 0, store.ShardID{Object: "absent"}); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Get = %v, want ErrNotFound", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("ErrNotFound took %v; was it retried?", elapsed)
	}
	if gets := srv.RequestStats().GetBatches; gets != 1 {
		t.Errorf("server saw %d get batches, want 1 (no retries of an answered request)", gets)
	}
}

// cancellingNode fails every get batch fast with ErrNodeDown, a retryable
// failure, and cancels the caller's operation as it does.
type cancellingNode struct {
	*store.MemNode
	cancel context.CancelFunc
}

func (n *cancellingNode) GetBatch(_ context.Context, ids []store.ShardID) []store.ShardResult {
	n.cancel()
	results := make([]store.ShardResult, len(ids))
	for i, id := range ids {
		results[i].Err = &store.ShardError{Node: n.ID(), Shard: id, Op: "get", Err: store.ErrNodeDown}
	}
	return results
}

func TestRetryPolicyStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	srv := NewServer(&cancellingNode{MemNode: store.NewMemNode("backing"), cancel: cancel})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewRemoteNode("r", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = client.Close() })
	if _, err := store.NewCluster([]store.Node{client}).Get(ctx, 0, store.ShardID{Object: "o"}); err == nil {
		t.Fatal("Get of a cancelled operation succeeded")
	}
	if gets := srv.RequestStats().GetBatches; gets != 1 {
		t.Errorf("server saw %d get batches, want 1: a cancelled operation is not re-issued", gets)
	}
}

func TestChaosScheduleDrivesRemoteNode(t *testing.T) {
	// The same Schedule that perturbs an in-process node drives a remote
	// client over real TCP when the served node is wrapped: a partition
	// window makes the remote unavailable and fails its reads with
	// ErrNodeDown, and the node recovers once the window closes.
	mem := store.NewMemNode("backing")
	id := store.ShardID{Object: "o", Row: 0}
	if err := mem.Put(t.Context(), id, []byte{7}); err != nil {
		t.Fatal(err)
	}
	chaos := faults.NewChaosNode(mem, faults.Schedule{
		Rules: []faults.Rule{{Kind: faults.FaultPartition, From: 0, To: 3}},
	})
	srv := NewServer(chaos)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewRemoteNode("r", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = client.Close() })

	if client.Available(t.Context()) { // tick 0
		t.Error("remote available inside partition window")
	}
	if _, err := client.Get(t.Context(), id); !errors.Is(err, store.ErrNodeDown) { // tick 1
		t.Errorf("Get inside partition = %v, want ErrNodeDown", err)
	}
	if _, err := client.Get(t.Context(), id); !errors.Is(err, store.ErrNodeDown) { // tick 2
		t.Errorf("Get inside partition = %v, want ErrNodeDown", err)
	}
	got, err := client.Get(t.Context(), id) // tick 3: window closed
	if err != nil || !bytes.Equal(got, []byte{7}) {
		t.Errorf("Get after partition = %v, %v; want recovery", got, err)
	}
	if stats := chaos.InjectionStats(); stats.PartitionDrops != 3 {
		t.Errorf("partition drops = %d, want 3", stats.PartitionDrops)
	}
}

// resetCounter counts the reads ConnChaos reset on one connection.
type resetCounter struct {
	net.Conn
	resets *atomic.Int64
}

func (c *resetCounter) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if errors.Is(err, faults.ErrInjected) {
		c.resets.Add(1)
	}
	return n, err
}

func TestConnChaosWithRetries(t *testing.T) {
	// ConnChaos perturbs the wire itself: it resets one server read in five.
	// A reset fails the one attempt that meets it, and the cluster re-issues
	// the shard, so an operation fails only when each of its three attempts
	// met a reset: every failure spends three resets, and some reset is
	// absorbed.
	mem := store.NewMemNode("backing")
	chaos := faults.NewConnChaos(11, time.Millisecond, 0.2)
	var resets atomic.Int64
	srv := NewServer(mem, WithConnWrapper(func(c net.Conn) net.Conn {
		return &resetCounter{Conn: chaos.Wrap(c), resets: &resets}
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewRemoteNode("r", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = client.Close() })
	cluster := store.NewCluster([]store.Node{client})

	const attempts = 3
	failures := 0
	for i := 0; i < 10; i++ {
		id := store.ShardID{Object: "o", Row: i}
		if err := cluster.Put(t.Context(), 0, id, []byte{byte(i)}); err != nil {
			if !errors.Is(err, store.ErrNodeDown) {
				t.Fatalf("Put %d under conn chaos: %v", i, err)
			}
			failures++
			continue
		}
		got, err := cluster.Get(t.Context(), 0, id)
		switch {
		case errors.Is(err, store.ErrNodeDown):
			failures++
		case err != nil || !bytes.Equal(got, []byte{byte(i)}):
			t.Fatalf("Get %d under conn chaos = %v, %v", i, got, err)
		}
	}
	n := resets.Load()
	t.Logf("%d resets, %d failed operations", n, failures)
	if n <= int64(attempts*failures) {
		t.Errorf("%d operations failed on %d resets: a failure should spend %d resets, and some reset be absorbed", failures, n, attempts)
	}
}

// replyDropper closes a served connection instead of writing the next reply
// once armed: the request was applied, and its answer is lost on the way
// back.
type replyDropper struct {
	net.Conn
	armed *atomic.Bool
}

func (c *replyDropper) Write(p []byte) (int, error) {
	if c.armed.CompareAndSwap(true, false) {
		_ = c.Conn.Close()
		return 0, errors.New("reply dropped by test")
	}
	return c.Conn.Write(p)
}

// TestStateChangingArchiveOpsAreSentAtMostOnce: a commit whose reply is lost
// on a pooled connection is neither re-dialled nor retried - the gateway
// applies it once and the client learns ErrNodeDown - while a retrieve
// under the same loss is sent again and succeeds.
func TestStateChangingArchiveOpsAreSentAtMostOnce(t *testing.T) {
	stub := &stubArchiveBackend{}
	var armed atomic.Bool
	srv := NewServer(nil, WithArchiveBackend(stub), WithConnWrapper(func(c net.Conn) net.Conn {
		return &replyDropper{Conn: c, armed: &armed}
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewArchiveClient("gw", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = client.Close() })
	calls := func(op string) int {
		stub.mu.Lock()
		defer stub.mu.Unlock()
		count := 0
		for _, call := range stub.calls {
			if strings.HasPrefix(call, op+" ") {
				count++
			}
		}
		return count
	}
	ctx := t.Context()

	if _, err := client.Info(ctx, "a"); err != nil { // pools a connection
		t.Fatal(err)
	}
	armed.Store(true)
	if _, err := client.Commit(ctx, "a", 0, []byte("once")); !errors.Is(err, store.ErrNodeDown) {
		t.Errorf("commit whose reply was lost: err = %v, want ErrNodeDown", err)
	}
	if got := calls("commit"); got != 1 {
		t.Errorf("the gateway applied the commit %d times, want 1", got)
	}

	if _, err := client.Info(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	armed.Store(true)
	if v, err := client.Retrieve(ctx, "a", 1); err != nil || !bytes.Equal(v.Data, []byte("once")) {
		t.Errorf("retrieve whose first reply was lost: %q, %v; want the committed bytes", v.Data, err)
	}
	if got := calls("retrieve"); got != 2 {
		t.Errorf("the gateway served the retrieve %d times, want 2: it is sent again", got)
	}
}
