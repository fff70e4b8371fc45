package store_test

// Contract tests over every node implementation, including the ones that
// live above this package (faults.ChaosNode, transport.RemoteNode), which
// is why they are an external test package.

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/faults"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/transport"
)

// contractNode is one node under the contract and the switch that fails it;
// setFailed is nil for a node that is always down.
type contractNode struct {
	node      store.Node
	setFailed func(bool)
}

// contractNodes returns one node of every kind.
func contractNodes(t *testing.T) map[string]contractNode {
	t.Helper()
	mem := store.NewMemNode("mem")
	disk, err := store.NewDiskNode("disk", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	chaos := faults.NewChaosNode(store.NewMemNode("chaos"), faults.Schedule{})
	backing := store.NewMemNode("backing")
	srv := transport.NewServer(backing)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	remote := transport.NewRemoteNode("remote", addr.String(), transport.WithTimeout(5*time.Second))
	t.Cleanup(func() { _ = remote.Close() })
	down, _ := downDiskCluster(t, 3).Node(2)
	return map[string]contractNode{
		"mem":    {mem, mem.SetFailed},
		"disk":   {disk, disk.SetFailed},
		"chaos":  {chaos, chaos.SetFailed},
		"remote": {remote, backing.SetFailed},
		"down":   {down, nil},
	}
}

// contractOp is one shard operation, as a single-shard call and as a batch
// of one. Reads check the bytes they return.
type contractOp struct {
	name          string
	single, batch func(ctx context.Context, n store.Node, id store.ShardID) error
}

var contractPayload = []byte("shard")

// errBadRead marks a read that succeeded with the wrong bytes.
var errBadRead = errors.New("read returned the wrong bytes")

func checkRead(data []byte, err error) error {
	if err == nil && !bytes.Equal(data, contractPayload) {
		return errBadRead
	}
	return err
}

var contractOps = []contractOp{
	{"put",
		func(ctx context.Context, n store.Node, id store.ShardID) error {
			return n.Put(ctx, id, contractPayload)
		},
		func(ctx context.Context, n store.Node, id store.ShardID) error {
			return n.PutBatch(ctx, []store.ShardID{id}, [][]byte{contractPayload})[0]
		}},
	{"get",
		func(ctx context.Context, n store.Node, id store.ShardID) error { return checkRead(n.Get(ctx, id)) },
		func(ctx context.Context, n store.Node, id store.ShardID) error {
			res := n.GetBatch(ctx, []store.ShardID{id})[0]
			return checkRead(res.Data, res.Err)
		}},
	{"delete",
		func(ctx context.Context, n store.Node, id store.ShardID) error { return n.Delete(ctx, id) },
		func(ctx context.Context, n store.Node, id store.ShardID) error {
			return n.DeleteBatch(ctx, []store.ShardID{id})[0]
		}},
}

// statsDelta is after - before, field by field.
func statsDelta(before, after store.NodeStats) store.NodeStats {
	return store.NodeStats{
		Reads:        after.Reads - before.Reads,
		Writes:       after.Writes - before.Writes,
		Deletes:      after.Deletes - before.Deletes,
		BytesRead:    after.BytesRead - before.BytesRead,
		BytesWritten: after.BytesWritten - before.BytesWritten,
	}
}

// TestNodeContract: on every node, a single-shard call and a batch of one
// are the same operation - the same sentinel and the same NodeStats delta -
// whether the shard is there, is absent, the node is failed, or the context
// is cancelled on a failed node, where cancellation, not node health, is
// the answer.
func TestNodeContract(t *testing.T) {
	states := []struct {
		name    string
		present bool
		failed  bool
		cancel  bool
		want    func(op string) error // the sentinel, nil for success
	}{
		{"present", true, false, false, func(string) error { return nil }},
		{"absent", false, false, false, func(op string) error {
			if op == "put" {
				return nil
			}
			return store.ErrNotFound
		}},
		{"failed", true, true, false, func(string) error { return store.ErrNodeDown }},
		{"cancelled on a failed node", true, true, true, func(string) error { return context.Canceled }},
	}
	for name, cn := range contractNodes(t) {
		t.Run(name, func(t *testing.T) {
			n := cn.node
			for _, st := range states {
				if cn.setFailed == nil && !st.failed {
					continue // an always-down node has no healthy states
				}
				for _, op := range contractOps {
					ids := []store.ShardID{{Object: st.name + "/" + op.name, Row: 0}, {Object: st.name + "/" + op.name, Row: 1}}
					if st.present && cn.setFailed != nil {
						for i, err := range n.PutBatch(t.Context(), ids, [][]byte{contractPayload, contractPayload}) {
							if err != nil {
								t.Fatalf("%s: seeding shard %d: %v", st.name, i, err)
							}
						}
					}
					if st.failed && cn.setFailed != nil {
						cn.setFailed(true)
					}
					ctx, cancel := context.WithCancel(t.Context())
					if st.cancel {
						cancel()
					}
					s0 := n.Stats()
					singleErr := op.single(ctx, n, ids[0])
					s1 := n.Stats()
					batchErr := op.batch(ctx, n, ids[1])
					s2 := n.Stats()
					cancel()
					if cn.setFailed != nil {
						cn.setFailed(false)
					}
					want := st.want(op.name)
					for form, err := range map[string]error{"single": singleErr, "batch of one": batchErr} {
						ok := errors.Is(err, want)
						if want == nil {
							ok = err == nil
						}
						if !ok || want != store.ErrNodeDown && errors.Is(err, store.ErrNodeDown) {
							t.Errorf("%s %s, %s: err = %v, want %v", st.name, op.name, form, err, want)
						}
					}
					if a, b := statsDelta(s0, s1), statsDelta(s1, s2); a != b {
						t.Errorf("%s %s: single moved stats by %+v, batch of one by %+v", st.name, op.name, a, b)
					}
				}
			}
		})
	}
}

// downDiskCluster is a disk cluster of size nodes whose node 2 directory
// holds a foreign format marker, so that node cannot be opened.
func downDiskCluster(t *testing.T, size int) *store.Cluster {
	t.Helper()
	base := t.TempDir()
	dir := filepath.Join(base, "node-2")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "SECNODE"), []byte("other-format 9\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := store.NewDiskCluster(base, size)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// aroundNode is colocated placement over every node but skip: row i lives
// on node i, or i+1 from skip on.
type aroundNode struct{ skip int }

func (aroundNode) Name() string { return "around-node" }
func (p aroundNode) NodeFor(_, row int) int {
	if row >= p.skip {
		return row + 1
	}
	return row
}
func (aroundNode) NodesRequired(_, n int) int { return n + 1 }

// TestDiskClusterDownNode: a disk node whose directory cannot be opened
// joins its cluster as down. Every operation on it fails with ErrNodeDown
// and the reason it could not be opened, a probe reports it down, fault
// injection names it as unsupported, and the rest of the cluster serves an
// archive placed around it.
func TestDiskClusterDownNode(t *testing.T) {
	ctx := t.Context()
	c := downDiskCluster(t, 7)
	n, err := c.Node(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, isDisk := n.(*store.DiskNode); isDisk || n.Available(ctx) {
		t.Fatalf("node 2 joined as %T, available = %v; want a down node", n, n.Available(ctx))
	}
	id := store.ShardID{Object: "o", Row: 2}
	_, getErr := n.Get(ctx, id)
	errs := map[string]error{
		"put":          n.Put(ctx, id, []byte{1}),
		"get":          getErr,
		"delete":       n.Delete(ctx, id),
		"put batch":    n.PutBatch(ctx, []store.ShardID{id}, [][]byte{{1}})[0],
		"get batch":    n.GetBatch(ctx, []store.ShardID{id})[0].Err,
		"delete batch": n.DeleteBatch(ctx, []store.ShardID{id})[0],
	}
	for op, err := range errs {
		var se *store.ShardError
		if !errors.Is(err, store.ErrNodeDown) || !strings.Contains(err.Error(), "unsupported format marker") ||
			!errors.As(err, &se) || se.Node != "disk-2" || se.Shard != id {
			t.Errorf("%s on the down node = %v, want ErrNodeDown for disk-2 naming the unopenable marker", op, err)
		}
	}
	if up := c.Probe(ctx, []int{0, 1, 2, 3}).Up; !up[0] || !up[1] || up[2] || !up[3] {
		t.Errorf("Probe = %v, want only node 2 down", up)
	}
	if err := c.Fail(0, 2); err == nil || !strings.Contains(err.Error(), "disk-2 does not support fault injection") {
		t.Errorf("Fail(0, 2) = %v, want disk-2 named as not injectable", err)
	}
	if !c.Available(ctx, 0) {
		t.Error("node 0 was failed by the rejected Fail call")
	}

	a, err := core.New(core.Config{
		Name: "around", Scheme: core.BasicSEC, Code: erasure.NonSystematicCauchy,
		N: 6, K: 4, BlockSize: 16, Placement: aroundNode{skip: 2},
	}, c)
	if err != nil {
		t.Fatal(err)
	}
	object := bytes.Repeat([]byte{3}, a.Capacity())
	var versions [][]byte
	for v := 0; v < 3; v++ {
		object = append([]byte(nil), object...)
		object[v*16] ^= 0x5A // one block per version: a 1-sparse delta
		if _, err := a.CommitContext(ctx, object); err != nil {
			t.Fatalf("commit v%d: %v", v+1, err)
		}
		versions = append(versions, object)
	}
	for v, want := range versions {
		got, _, err := a.RetrieveContext(ctx, v+1)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("v%d read back %d bytes (err %v), want the committed %d", v+1, len(got), err, len(want))
		}
	}
}
