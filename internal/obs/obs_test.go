package obs

import (
	"context"
	"testing"
)

// TestRingKeepsTheLatest: a full ring overwrites its oldest spans and
// returns what it holds oldest first, all of it or one trace's.
func TestRingKeepsTheLatest(t *testing.T) {
	r := newRing(3)
	for i := 1; i <= 5; i++ {
		r.add(Span{Trace: uint64(i % 2), Name: "s", Node: i})
	}
	var nodes []int
	for _, s := range r.spansOf(0) {
		nodes = append(nodes, s.Node)
	}
	if len(nodes) != 3 || nodes[0] != 3 || nodes[1] != 4 || nodes[2] != 5 {
		t.Errorf("ring holds nodes %v, want [3 4 5]", nodes)
	}
	if odd := r.spansOf(1); len(odd) != 2 || odd[0].Node != 3 || odd[1].Node != 5 {
		t.Errorf("trace 1 holds %+v, want nodes 3 and 5", odd)
	}
}

// TestSpansGoWhereTheLayerRecords: an untraced context records nothing and
// makes no ring; a traced one records into the ring of the layer that took
// it, under its id, and nothing before a layer did.
func TestSpansGoWhereTheLayerRecords(t *testing.T) {
	var ring LazyRing
	ctx := RecordInto(context.Background(), &ring)
	Start(ctx, "persist").End()
	if ID(ctx) != 0 || ring.Spans(0) != nil || WithTrace(ctx, 0) != ctx {
		t.Fatal("an untraced context carried an id or made the ring")
	}
	traced := WithTrace(context.Background(), 42)
	Start(traced, "unrecorded").End() // no layer took the request yet
	ctx = RecordInto(traced, &ring)
	Start(ctx, "admission").End()
	Start(ctx, "node-put").EndBatch(7, 2)
	spans := ring.Spans(42)
	if ID(ctx) != 42 || len(spans) != 2 {
		t.Fatalf("trace 42 recorded %+v, want two spans", spans)
	}
	if s := spans[0]; s.Name != "admission" || s.Node != -1 || s.Shards != 0 {
		t.Errorf("first span %+v, want the admission, on no node", s)
	}
	if s := spans[1]; s.Name != "node-put" || s.Node != 7 || s.Shards != 2 || s.Dur < 0 {
		t.Errorf("second span %+v, want a put batch of 2 shards to node 7", s)
	}
}
