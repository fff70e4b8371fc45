package gateway_test

import (
	"testing"

	"github.com/secarchive/sec/internal/obs"
	"github.com/secarchive/sec/secclient"
)

// TestTracedCommitCrossesTheWire follows traced commits from the client
// through the gateway into the node servers over TCP. Under each commit's
// id the node servers record n = 12 shard put batches plus n-k+1 = 3 record
// put batches (a fold adds 3 snapshot put batches and a delete batch per
// node), and the gateway records the same batches from its side, one
// admission wait and one persist. A traced read records its plan, decode
// and node reads.
func TestTracedCommitCrossesTheWire(t *testing.T) {
	const n, holders = 12, 3
	client, gw, servers := servedStackParts(t, n)
	ctx := t.Context()
	if _, err := client.Create(ctx, "a", secclient.Spec{N: n, K: 10, BlockSize: 1024}); err != nil {
		t.Fatal(err)
	}
	count := func(spans []obs.Span) map[string]int {
		names := map[string]int{}
		for _, s := range spans {
			names[s.Name]++
		}
		return names
	}
	object := make([]byte, 10*1024)
	var folds, plain int
	for trace := uint64(1); trace <= 6; trace++ {
		object[int(trace)*1000] ^= 0x5A
		if _, err := client.Commit(secclient.WithTrace(ctx, trace), "a", object); err != nil {
			t.Fatal(err)
		}
		served, twice := map[string]int{}, 0
		for _, srv := range servers {
			names := count(srv.Spans(trace))
			for name, c := range names {
				served[name] += c
			}
			if names["serve-put"] == 2 {
				twice++
			}
		}
		gateway := count(gw.Spans(trace))
		wantPuts, wantDeletes, wantTwice := n+holders, 0, holders
		if gateway["replicate"] == 2 { // the record, then the snapshot of a fold
			wantPuts, wantDeletes, wantTwice = n+2*holders, n, 0
			folds++
		} else {
			plain++
		}
		if served["serve-put"] != wantPuts || served["serve-delete"] != wantDeletes || (wantTwice > 0 && twice != wantTwice) {
			t.Errorf("trace %d: node servers recorded %v with %d of them putting twice, want %d serve-put, %d serve-delete and %d",
				trace, served, twice, wantPuts, wantDeletes, wantTwice)
		}
		if gateway["node-put"] != wantPuts || gateway["node-delete"] != wantDeletes || gateway["admission"] != 1 || gateway["persist"] != 1 {
			t.Errorf("trace %d: the gateway recorded %v, want %d node-put, %d node-delete, one admission and one persist", trace, gateway, wantPuts, wantDeletes)
		}
	}
	if folds == 0 || plain == 0 {
		t.Fatalf("%d folding and %d plain commits: the test needs both", folds, plain)
	}
	const read = 99
	if _, err := client.Retrieve(secclient.WithTrace(ctx, read), "a", 2); err != nil {
		t.Fatal(err)
	}
	if names := count(gw.Spans(read)); names["plan"] != 1 || names["decode"] != 1 || names["node-get"] == 0 {
		t.Errorf("a traced read recorded %v, want a plan, a decode and node reads", names)
	}
}
