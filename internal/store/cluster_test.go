package store

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
)

func TestMemClusterBasicOps(t *testing.T) {
	c := NewMemCluster(3)
	if c.Size() != 3 {
		t.Fatalf("Size = %d, want 3", c.Size())
	}
	id := ShardID{Object: "o", Row: 0}
	if err := c.Put(t.Context(), 1, id, []byte{7}); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(t.Context(), 1, id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{7}) {
		t.Errorf("Get = %v, want [7]", got)
	}
	// The shard lives only on node 1.
	if _, err := c.Get(t.Context(), 0, id); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get from wrong node: err = %v, want ErrNotFound", err)
	}
}

func TestClusterOutOfRange(t *testing.T) {
	c := NewMemCluster(2)
	id := ShardID{Object: "o", Row: 0}
	if err := c.Put(t.Context(), 5, id, nil); !errors.Is(err, ErrClusterTooSmall) {
		t.Errorf("Put out of range: err = %v, want ErrClusterTooSmall", err)
	}
	if _, err := c.Get(t.Context(), -1, id); !errors.Is(err, ErrClusterTooSmall) {
		t.Errorf("Get out of range: err = %v, want ErrClusterTooSmall", err)
	}
	if c.Available(t.Context(), 9) {
		t.Error("out-of-range node reported available")
	}
}

func TestClusterEnsureSizeGrowable(t *testing.T) {
	c := NewMemCluster(1)
	if err := c.EnsureSize(5); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 5 {
		t.Errorf("Size after grow = %d, want 5", c.Size())
	}
	// Shrinking is a no-op.
	if err := c.EnsureSize(2); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 5 {
		t.Errorf("Size after no-op = %d, want 5", c.Size())
	}
	// Grown nodes have distinct IDs.
	ids := make(map[string]bool)
	for i := 0; i < c.Size(); i++ {
		n, err := c.Node(i)
		if err != nil {
			t.Fatal(err)
		}
		if ids[n.ID()] {
			t.Fatalf("duplicate node ID %q", n.ID())
		}
		ids[n.ID()] = true
	}
}

func TestClusterEnsureSizeFixed(t *testing.T) {
	c := NewCluster([]Node{NewMemNode("a")})
	if err := c.EnsureSize(3); !errors.Is(err, ErrClusterTooSmall) {
		t.Errorf("EnsureSize on fixed cluster: err = %v, want ErrClusterTooSmall", err)
	}
	if err := c.EnsureSize(1); err != nil {
		t.Errorf("EnsureSize within size: err = %v", err)
	}
}

func TestClusterFailHeal(t *testing.T) {
	c := NewMemCluster(4)
	if err := c.Fail(1, 3); err != nil {
		t.Fatal(err)
	}
	for i, wantUp := range []bool{true, false, true, false} {
		if got := c.Available(t.Context(), i); got != wantUp {
			t.Errorf("Available(%d) = %v, want %v", i, got, wantUp)
		}
	}
	if err := c.Heal(1); err != nil {
		t.Fatal(err)
	}
	if !c.Available(t.Context(), 1) {
		t.Error("node 1 still down after Heal")
	}
	c.HealAll()
	if !c.Available(t.Context(), 3) {
		t.Error("node 3 still down after HealAll")
	}
	if err := c.Fail(17); !errors.Is(err, ErrClusterTooSmall) {
		t.Errorf("Fail out of range: err = %v, want ErrClusterTooSmall", err)
	}
}

type plainNode struct{ Node }

func TestClusterFailUnsupported(t *testing.T) {
	// A node that hides its FaultInjector by wrapping.
	c := NewCluster([]Node{plainNode{NewMemNode("wrapped")}})
	if err := c.Fail(0); err == nil {
		t.Error("Fail on non-injectable node: want error")
	}
}

func TestClusterStatsAggregation(t *testing.T) {
	c := NewMemCluster(3)
	id := ShardID{Object: "o", Row: 0}
	for i := 0; i < 3; i++ {
		if err := c.Put(t.Context(), i, id, []byte{1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Get(t.Context(), 0, id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(t.Context(), 2, id); err != nil {
		t.Fatal(err)
	}
	got := c.TotalStats()
	if got.Reads != 2 || got.Writes != 3 || got.BytesWritten != 6 {
		t.Errorf("TotalStats = %+v", got)
	}
	c.ResetStats()
	if got := c.TotalStats(); got != (NodeStats{}) {
		t.Errorf("TotalStats after reset = %+v, want zero", got)
	}
}

func TestClusterAddNode(t *testing.T) {
	c := NewCluster(nil)
	idx := c.AddNode(NewMemNode("x"))
	if idx != 0 || c.Size() != 1 {
		t.Errorf("AddNode idx = %d size = %d", idx, c.Size())
	}
}

func TestGrowableClusterFactoryIndices(t *testing.T) {
	var got []int
	c := NewGrowableCluster(func(i int) Node {
		got = append(got, i)
		return NewMemNode("g")
	})
	if err := c.EnsureSize(3); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("factory indices = %v, want [0 1 2]", got)
	}
}

func TestClusterConcurrentAccess(t *testing.T) {
	c := NewMemCluster(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := ShardID{Object: "o", Row: g}
			node := g % 4
			for i := 0; i < 50; i++ {
				if err := c.Put(context.Background(), node, id, []byte{byte(i)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := c.Get(context.Background(), node, id); err != nil {
					t.Error(err)
					return
				}
				if err := c.EnsureSize(4 + g%3); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.TotalStats().Reads; got != 400 {
		t.Errorf("reads = %d, want 400", got)
	}
}

func TestClusterProbe(t *testing.T) {
	c := NewMemCluster(3)
	if err := c.Fail(1); err != nil {
		t.Fatal(err)
	}
	up := c.Probe(t.Context(), []int{0, 1, 1, 2, 7}).Up
	want := map[int]bool{0: true, 1: false, 2: true, 7: false} // 7 is beyond the cluster
	if len(up) != len(want) {
		t.Fatalf("Probe = %v, want %v", up, want)
	}
	for nd, w := range want {
		if got, asked := up[nd]; !asked || got != w {
			t.Errorf("Probe reports node %d up=%v (asked=%v), want %v", nd, got, asked, w)
		}
	}
	if got := c.Probe(t.Context(), nil).Up; len(got) != 0 {
		t.Errorf("Probe of no nodes = %v", got)
	}
}
