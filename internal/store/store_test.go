package store

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
)

func TestShardIDString(t *testing.T) {
	id := ShardID{Object: "arch/v2", Row: 5}
	if got, want := id.String(), "arch/v2#5"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestNodeStatsAdd(t *testing.T) {
	a := NodeStats{Reads: 1, Writes: 2, Deletes: 3, BytesRead: 4, BytesWritten: 5}
	b := NodeStats{Reads: 10, Writes: 20, Deletes: 30, BytesRead: 40, BytesWritten: 50}
	got := a.Add(b)
	want := NodeStats{Reads: 11, Writes: 22, Deletes: 33, BytesRead: 44, BytesWritten: 55}
	if got != want {
		t.Errorf("Add = %+v, want %+v", got, want)
	}
}

func TestMemNodePutGetDelete(t *testing.T) {
	n := NewMemNode("n0")
	id := ShardID{Object: "obj", Row: 1}
	if err := n.Put(t.Context(), id, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got, err := n.Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Get = %v, want [1 2 3]", got)
	}
	if err := n.Delete(t.Context(), id); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Get(t.Context(), id); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get after delete: err = %v, want ErrNotFound", err)
	}
	if err := n.Delete(t.Context(), id); !errors.Is(err, ErrNotFound) {
		t.Errorf("double Delete: err = %v, want ErrNotFound", err)
	}
}

// TestMemNodePutCopiesGetShares pins the node's side of the read-only
// contract: Put stores a copy, so the caller may reuse its buffer; Get hands
// out the stored shard itself, every reader the same bytes, cap-clipped so
// an append cannot write behind them; and a later Put replaces the shard
// instead of writing into the one readers hold.
func TestMemNodePutCopiesGetShares(t *testing.T) {
	n := NewMemNode("n0")
	id := ShardID{Object: "obj", Row: 0}
	data := []byte{9, 9}
	if err := n.Put(t.Context(), id, data); err != nil {
		t.Fatal(err)
	}
	data[0] = 0
	got, err := n.Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{9, 9}) {
		t.Fatalf("Get = %v after the caller reused its buffer: Put did not copy", got)
	}
	again, err := n.Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if &again[0] != &got[0] {
		t.Error("two Gets of one shard returned different memory: Get copied")
	}
	if cap(got) != len(got) {
		t.Errorf("Get handed out cap %d over len %d: an append would write behind the stored shard", cap(got), len(got))
	}
	if err := n.Put(t.Context(), id, []byte{7, 7}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{9, 9}) {
		t.Errorf("a shard a reader holds changed to %v when it was overwritten", got)
	}
}

func TestMemNodeFailureInjection(t *testing.T) {
	n := NewMemNode("n0")
	id := ShardID{Object: "obj", Row: 0}
	if err := n.Put(t.Context(), id, []byte{1}); err != nil {
		t.Fatal(err)
	}
	n.SetFailed(true)
	if n.Available(t.Context()) {
		t.Error("failed node reports Available")
	}
	if _, err := n.Get(t.Context(), id); !errors.Is(err, ErrNodeDown) {
		t.Errorf("Get on failed node: err = %v, want ErrNodeDown", err)
	}
	if err := n.Put(t.Context(), id, []byte{2}); !errors.Is(err, ErrNodeDown) {
		t.Errorf("Put on failed node: err = %v, want ErrNodeDown", err)
	}
	if err := n.Delete(t.Context(), id); !errors.Is(err, ErrNodeDown) {
		t.Errorf("Delete on failed node: err = %v, want ErrNodeDown", err)
	}
	// Crash-stop keeps data: healing restores access.
	n.SetFailed(false)
	got, err := n.Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1}) {
		t.Error("data lost across failure")
	}
}

func TestMemNodeStatsCountExactIO(t *testing.T) {
	n := NewMemNode("n0")
	id := ShardID{Object: "obj", Row: 0}
	if err := n.Put(t.Context(), id, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := n.Get(t.Context(), id); err != nil {
			t.Fatal(err)
		}
	}
	// Unsuccessful reads are not I/O reads in the paper's model.
	if _, err := n.Get(t.Context(), ShardID{Object: "missing", Row: 0}); err == nil {
		t.Fatal("expected miss")
	}
	n.SetFailed(true)
	_, _ = n.Get(t.Context(), id)
	n.SetFailed(false)

	got := n.Stats()
	want := NodeStats{Reads: 3, Writes: 1, BytesRead: 12, BytesWritten: 4}
	if got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
	n.ResetStats()
	if got := n.Stats(); got != (NodeStats{}) {
		t.Errorf("Stats after reset = %+v, want zero", got)
	}
}

func TestMemNodeConcurrent(t *testing.T) {
	n := NewMemNode("n0")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := ShardID{Object: "obj", Row: g}
			for i := 0; i < 100; i++ {
				if err := n.Put(context.Background(), id, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := n.Get(context.Background(), id); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := n.Stats().Reads; got != 800 {
		t.Errorf("concurrent reads counted = %d, want 800", got)
	}
}

func TestColocatedPlacement(t *testing.T) {
	p := ColocatedPlacement{}
	if p.Name() != "colocated" {
		t.Errorf("Name = %q", p.Name())
	}
	for object := 0; object < 5; object++ {
		for row := 0; row < 6; row++ {
			if got := p.NodeFor(object, row); got != row {
				t.Errorf("NodeFor(%d,%d) = %d, want %d", object, row, got, row)
			}
		}
	}
	if got := p.NodesRequired(5, 6); got != 6 {
		t.Errorf("NodesRequired = %d, want 6", got)
	}
}

func TestDispersedPlacement(t *testing.T) {
	p := DispersedPlacement{N: 6}
	if p.Name() != "dispersed" {
		t.Errorf("Name = %q", p.Name())
	}
	if got := p.NodeFor(0, 3); got != 3 {
		t.Errorf("NodeFor(0,3) = %d, want 3", got)
	}
	if got := p.NodeFor(2, 3); got != 15 {
		t.Errorf("NodeFor(2,3) = %d, want 15", got)
	}
	if got := p.NodesRequired(5, 6); got != 30 {
		t.Errorf("NodesRequired = %d, want 30", got)
	}
	// Distinct objects never share nodes.
	seen := make(map[int]int)
	for object := 0; object < 4; object++ {
		for row := 0; row < 6; row++ {
			node := p.NodeFor(object, row)
			if prev, ok := seen[node]; ok && prev != object {
				t.Fatalf("node %d shared by objects %d and %d", node, prev, object)
			}
			seen[node] = object
		}
	}
}

func TestDispersedPlacementZeroNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NodeFor with N=0 did not panic")
		}
	}()
	DispersedPlacement{}.NodeFor(1, 0)
}
