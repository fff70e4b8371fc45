package transport

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/store"
)

// stubArchiveBackend records calls and returns canned results, so the wire
// layer can be tested without a real gateway behind it.
type stubArchiveBackend struct {
	mu     sync.Mutex
	calls  []string
	err    error // injected failure for every op
	data   []byte
	expect int // last commit precondition seen
}

func (b *stubArchiveBackend) record(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.calls = append(b.calls, fmt.Sprintf(format, args...))
}

func (b *stubArchiveBackend) Create(_ context.Context, name string, spec ArchiveSpec) (ArchiveInfo, error) {
	b.record("create %s (%d,%d)", name, spec.N, spec.K)
	if b.err != nil {
		return ArchiveInfo{}, b.err
	}
	return ArchiveInfo{Manifest: spec.Manifest(name), Capacity: spec.K * spec.BlockSize}, nil
}

func (b *stubArchiveBackend) Commit(_ context.Context, name string, expect int, object []byte) (core.CommitInfo, error) {
	b.record("commit %s expect=%d len=%d", name, expect, len(object))
	b.mu.Lock()
	b.expect = expect
	b.data = append([]byte(nil), object...)
	b.mu.Unlock()
	if b.err != nil {
		return core.CommitInfo{}, b.err
	}
	return core.CommitInfo{Version: 7, StoredDelta: true, Gamma: 3, ShardWrites: 12}, nil
}

func (b *stubArchiveBackend) Retrieve(_ context.Context, name string, version int) (ArchiveVersion, error) {
	b.record("retrieve %s v%d", name, version)
	if b.err != nil {
		return ArchiveVersion{}, b.err
	}
	return ArchiveVersion{
		Version: version,
		Data:    b.data,
		Stats:   core.RetrievalStats{NodeReads: 10, SparseReads: 1},
	}, nil
}

func (b *stubArchiveBackend) RetrieveAll(_ context.Context, name string, version int) ([][]byte, core.RetrievalStats, error) {
	b.record("retrieve-all %s v%d", name, version)
	if b.err != nil {
		return nil, core.RetrievalStats{}, b.err
	}
	return [][]byte{{1}, nil, b.data}, core.RetrievalStats{NodeReads: 22}, nil
}

func (b *stubArchiveBackend) Log(_ context.Context, name string) ([]ArchiveLogEntry, error) {
	b.record("log %s", name)
	if b.err != nil {
		return nil, b.err
	}
	return []ArchiveLogEntry{
		{ManifestEntry: core.ManifestEntry{Version: 1, Full: true, Length: 9}, ChainDepth: 1, PlannedReads: 12},
		{ManifestEntry: core.ManifestEntry{Version: 2, Delta: true, Gamma: 2, Length: 9, Support: []int{0, 3}}, ChainDepth: 2, PlannedReads: 14},
	}, nil
}

func (b *stubArchiveBackend) Info(_ context.Context, name string) (ArchiveInfo, error) {
	b.record("info %s", name)
	if b.err != nil {
		return ArchiveInfo{}, b.err
	}
	return ArchiveInfo{
		Manifest: core.Manifest{Name: name, Spec: core.Spec{N: 12, K: 10}},
		Versions: 4,
		Capacity: 40,
		Cache:    &core.CacheStats{Hits: 3, Budget: 1 << 20},
		Nodes:    []ArchiveNodeStatus{{Health: store.NodeHealth{Node: 0, ID: "n0"}, Up: true}},
	}, nil
}

func (b *stubArchiveBackend) Compact(_ context.Context, name string, maxChain int) (CompactReport, error) {
	b.record("compact %s max=%d", name, maxChain)
	if b.err != nil {
		return CompactReport{}, b.err
	}
	return CompactReport{Info: core.CompactionInfo{MaxChainLength: maxChain, Rebased: []int{2, 3}}, Deleted: 5}, nil
}

func (b *stubArchiveBackend) Scrub(_ context.Context, name string, repair bool) (core.ScrubReport, error) {
	b.record("scrub %s repair=%v", name, repair)
	if b.err != nil {
		return core.ScrubReport{}, b.err
	}
	return core.ScrubReport{ShardsChecked: 24}, nil
}

func (b *stubArchiveBackend) Repair(_ context.Context, name string, node int) (core.RepairReport, error) {
	b.record("repair %s node=%d", name, node)
	if b.err != nil {
		return core.RepairReport{}, b.err
	}
	return core.RepairReport{ShardsChecked: 2}, nil
}

// startArchiveServer serves a stub backend (with no storage node) over
// loopback TCP and returns the stub plus a connected archive client.
func startArchiveServer(t *testing.T) (*stubArchiveBackend, *ArchiveClient) {
	t.Helper()
	stub := &stubArchiveBackend{}
	srv := NewServer(nil, WithArchiveBackend(stub))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewArchiveClient("gw-test", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = client.Close() })
	return stub, client
}

func TestArchCommitCodecRoundTrip(t *testing.T) {
	for _, tt := range []struct {
		expect int
		object []byte
	}{
		{-1, []byte("object bytes")},
		{0, nil},
		{41, []byte{0xFF}},
	} {
		body, err := encodeArchCommit(tt.expect, tt.object)
		if err != nil {
			t.Fatalf("encode expect=%d: %v", tt.expect, err)
		}
		expect, object, err := decodeArchCommit(flat(body))
		if err != nil {
			t.Fatalf("decode expect=%d: %v", tt.expect, err)
		}
		if expect != tt.expect || !bytes.Equal(object, tt.object) {
			t.Errorf("round trip = (%d, %v), want (%d, %v)", expect, object, tt.expect, tt.object)
		}
	}
	if _, _, err := decodeArchCommit([]byte{0, 0}); !errors.Is(err, errArchMalformed) {
		t.Errorf("truncated commit: err = %v, want errArchMalformed", err)
	}
	if _, err := encodeArchCommit(-2, nil); err == nil {
		t.Error("expect=-2 encoded without error")
	}
}

func TestArchVersionCodecRoundTrip(t *testing.T) {
	want := ArchiveVersion{
		Version: 3,
		Data:    []byte("the decoded object"),
		Stats:   core.RetrievalStats{NodeReads: 14, SparseReads: 2, CacheHits: 1},
	}
	body, err := encodeArchVersion(want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeArchVersion(flat(body))
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || !bytes.Equal(got.Data, want.Data) ||
		got.Stats.NodeReads != want.Stats.NodeReads || got.Stats.CacheHits != want.Stats.CacheHits {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
	if _, err := decodeArchVersion([]byte{0, 0, 0}); !errors.Is(err, errArchMalformed) {
		t.Errorf("truncated version: err = %v, want errArchMalformed", err)
	}
}

func TestArchVersionsCodecRoundTrip(t *testing.T) {
	versions := [][]byte{[]byte("v1"), nil, []byte("version three")}
	stats := core.RetrievalStats{NodeReads: 30, FullReads: 1}
	body, err := encodeArchVersions(versions, stats)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := decodeArchVersions(flat(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(versions) {
		t.Fatalf("round trip count %d, want %d", len(got), len(versions))
	}
	for i := range versions {
		if !bytes.Equal(got[i], versions[i]) {
			t.Errorf("version %d: %v, want %v", i+1, got[i], versions[i])
		}
	}
	if gotStats.NodeReads != stats.NodeReads {
		t.Errorf("stats = %+v, want %+v", gotStats, stats)
	}
	// Trailing garbage after the last chunk must be rejected, not ignored.
	if _, _, err := decodeArchVersions(append(flat(body), 0xEE)); !errors.Is(err, errArchMalformed) {
		t.Errorf("trailing bytes: err = %v, want errArchMalformed", err)
	}
}

func TestArchiveClientAllOps(t *testing.T) {
	stub, client := startArchiveServer(t)
	ctx := t.Context()

	info, err := client.Create(ctx, "logs", ArchiveSpec{N: 12, K: 10, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if info.Manifest.Name != "logs" || info.Capacity != 40 {
		t.Errorf("Create info = %+v", info)
	}

	object := []byte("payload for commit")
	ci, err := client.Commit(ctx, "logs", 6, object)
	if err != nil {
		t.Fatal(err)
	}
	if ci.Version != 7 || !ci.StoredDelta || ci.Gamma != 3 {
		t.Errorf("CommitInfo = %+v", ci)
	}
	if stub.expect != 6 || !bytes.Equal(stub.data, object) {
		t.Errorf("server saw expect=%d data=%q", stub.expect, stub.data)
	}

	v, err := client.Retrieve(ctx, "logs", 7)
	if err != nil {
		t.Fatal(err)
	}
	if v.Version != 7 || !bytes.Equal(v.Data, object) || v.Stats.NodeReads != 10 {
		t.Errorf("Retrieve = %+v", v)
	}

	all, stats, err := client.RetrieveAll(ctx, "logs", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || !bytes.Equal(all[2], object) || stats.NodeReads != 22 {
		t.Errorf("RetrieveAll = %d versions, stats %+v", len(all), stats)
	}

	entries, err := client.Log(ctx, "logs")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[1].Gamma != 2 || entries[1].PlannedReads != 14 {
		t.Errorf("Log = %+v", entries)
	}

	ai, err := client.Info(ctx, "logs")
	if err != nil {
		t.Fatal(err)
	}
	if ai.Versions != 4 || ai.Cache == nil || ai.Cache.Hits != 3 || len(ai.Nodes) != 1 || !ai.Nodes[0].Up {
		t.Errorf("Info = %+v", ai)
	}

	cr, err := client.Compact(ctx, "logs", 5)
	if err != nil {
		t.Fatal(err)
	}
	if cr.Info.MaxChainLength != 5 || cr.Deleted != 5 {
		t.Errorf("Compact = %+v", cr)
	}

	sr, err := client.Scrub(ctx, "logs", true)
	if err != nil {
		t.Fatal(err)
	}
	if sr.ShardsChecked != 24 {
		t.Errorf("Scrub = %+v", sr)
	}

	rr, err := client.Repair(ctx, "logs", 3)
	if err != nil {
		t.Fatal(err)
	}
	if rr.ShardsChecked != 2 {
		t.Errorf("Repair = %+v", rr)
	}

	want := []string{
		"create logs (12,10)",
		"commit logs expect=6 len=18",
		"retrieve logs v7",
		"retrieve-all logs v0",
		"log logs",
		"info logs",
		"compact logs max=5",
		"scrub logs repair=true",
		"repair logs node=3",
	}
	stub.mu.Lock()
	defer stub.mu.Unlock()
	if len(stub.calls) != len(want) {
		t.Fatalf("server saw %d calls: %v", len(stub.calls), stub.calls)
	}
	for i := range want {
		if stub.calls[i] != want[i] {
			t.Errorf("call %d = %q, want %q", i, stub.calls[i], want[i])
		}
	}
}

func TestArchiveServerRequestStats(t *testing.T) {
	stub := &stubArchiveBackend{}
	srv := NewServer(nil, WithArchiveBackend(stub))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewArchiveClient("gw", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = client.Close() })

	if _, err := client.Commit(t.Context(), "a", -1, []byte("12345")); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Retrieve(t.Context(), "a", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Log(t.Context(), "a"); err != nil {
		t.Fatal(err)
	}
	stub.mu.Lock()
	calls := strings.Join(stub.calls, "; ")
	stub.mu.Unlock()
	if want := "commit a expect=-1 len=5; retrieve a v1; log a"; calls != want {
		t.Errorf("server saw calls %q, want %q", calls, want)
	}
	got := srv.RequestStats()
	if got.BytesWritten != 5 {
		t.Errorf("BytesWritten = %d, want 5 (the committed object)", got.BytesWritten)
	}
	if got.BytesRead != 5 {
		t.Errorf("BytesRead = %d, want 5 (the retrieved object)", got.BytesRead)
	}
}

// TestArchiveErrorTaxonomyOverWire proves busy/conflict/not-found cross the
// wire as their store sentinels wrapped in ShardError provenance.
func TestArchiveErrorTaxonomyOverWire(t *testing.T) {
	stub, client := startArchiveServer(t)
	for _, tt := range []struct {
		name     string
		inject   error
		sentinel error
	}{
		{"busy", fmt.Errorf("gateway: writer queue full: %w", store.ErrBusy), store.ErrBusy},
		{"conflict", fmt.Errorf("gateway: expected 3 versions: %w", store.ErrConflict), store.ErrConflict},
		{"not-found", fmt.Errorf("gateway: unknown archive: %w", store.ErrNotFound), store.ErrNotFound},
	} {
		t.Run(tt.name, func(t *testing.T) {
			stub.err = tt.inject
			defer func() { stub.err = nil }()
			_, err := client.Commit(t.Context(), "a", -1, []byte("x"))
			if !errors.Is(err, tt.sentinel) {
				t.Fatalf("err = %v, want %v", err, tt.sentinel)
			}
			var se *store.ShardError
			if !errors.As(err, &se) {
				t.Fatalf("err = %v, want ShardError provenance", err)
			}
			if se.Node != "gateway" || se.Shard.Object != "a" {
				t.Errorf("provenance = node %q shard %v", se.Node, se.Shard)
			}
		})
	}
}

// TestArchiveShardErrorProvenancePreserved proves a backend error that
// already names a culprit node crosses the wire un-reattributed.
func TestArchiveShardErrorProvenancePreserved(t *testing.T) {
	stub, client := startArchiveServer(t)
	stub.err = &store.ShardError{
		Node:  "node-4",
		Shard: store.ShardID{Object: "a/v2", Row: 1},
		Op:    "get",
		Err:   store.ErrNodeDown,
	}
	_, err := client.Retrieve(t.Context(), "a", 2)
	if !errors.Is(err, store.ErrNodeDown) {
		t.Fatalf("err = %v, want ErrNodeDown", err)
	}
	var se *store.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want ShardError", err)
	}
	if se.Node != "node-4" || se.Shard.Object != "a/v2" {
		t.Errorf("provenance rewritten: %+v", se)
	}
}

// TestArchiveRetrieveStreamsAcrossFrames forces multi-frame statusPartial
// continuation and checks the reassembled object is byte-identical.
func TestArchiveRetrieveStreamsAcrossFrames(t *testing.T) {
	defer func(prev int) { maxResponseChunk = prev }(maxResponseChunk)
	maxResponseChunk = 64

	stub, client := startArchiveServer(t)
	object := make([]byte, 10_000)
	for i := range object {
		object[i] = byte(i * 13)
	}
	stub.data = object
	v, err := client.Retrieve(t.Context(), "big", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.Data, object) {
		t.Error("streamed retrieve is not byte-identical")
	}
	all, _, err := client.RetrieveAll(t.Context(), "big", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 || !bytes.Equal(all[2], object) {
		t.Error("streamed retrieve-all is not byte-identical")
	}
}

// TestArchiveOpsAgainstLegacyPeer dials a plain storage node (which
// predates the archive ops) and checks every archive call fails with the
// typed ErrNotServed, not a silent mis-decode.
func TestArchiveOpsAgainstLegacyPeer(t *testing.T) {
	srv := NewServer(store.NewMemNode("plain"))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	client := NewArchiveClient("gw", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = client.Close() })

	if _, err := client.Retrieve(t.Context(), "a", 1); !errors.Is(err, ErrNotServed) {
		t.Errorf("Retrieve on legacy peer: err = %v, want ErrNotServed", err)
	}
	if _, err := client.Commit(t.Context(), "a", -1, []byte("x")); !errors.Is(err, ErrNotServed) {
		t.Errorf("Commit on legacy peer: err = %v, want ErrNotServed", err)
	}
	if _, err := client.Info(t.Context(), "a"); !errors.Is(err, ErrNotServed) {
		t.Errorf("Info on legacy peer: err = %v, want ErrNotServed", err)
	}
}

// TestMarkNotServed pins the two rejection messages that mean "dial a
// gateway instead": a true legacy peer's unknown-op answer and a current
// storage node's archive-ops-not-served answer.
func TestMarkNotServed(t *testing.T) {
	for _, msg := range []string{
		"transport: unknown op 12",
		"transport: archive ops not served",
	} {
		err := error(&store.ShardError{Node: "n", Op: "arch-get", Err: errors.New(msg)})
		markNotServed(err)
		if !errors.Is(err, ErrNotServed) {
			t.Errorf("%q not marked ErrNotServed", msg)
		}
	}
	err := error(&store.ShardError{Node: "n", Op: "arch-get", Err: store.ErrNodeDown})
	markNotServed(err)
	if errors.Is(err, ErrNotServed) {
		t.Error("unrelated failure marked ErrNotServed")
	}
}

// TestGatewayServerRejectsNodeOps checks the inverse: a gateway-only
// server (nil node) answers shard-level ops with a clean error and still
// serves pings.
func TestGatewayServerRejectsNodeOps(t *testing.T) {
	stub := &stubArchiveBackend{}
	srv := NewServer(nil, WithArchiveBackend(stub))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	node := NewRemoteNode("as-node", addr.String(), WithTimeout(2*time.Second))
	t.Cleanup(func() { _ = node.Close() })

	if !node.Available(t.Context()) {
		t.Error("gateway server does not answer pings")
	}
	if err := node.Put(t.Context(), store.ShardID{Object: "o"}, []byte{1}); err == nil {
		t.Error("Put on a gateway-only server succeeded")
	}
}

// TestArchiveOpWithoutName checks name validation happens before dispatch.
func TestArchiveOpWithoutName(t *testing.T) {
	stub, client := startArchiveServer(t)
	if _, err := client.Retrieve(t.Context(), "", 1); err == nil {
		t.Fatal("empty archive name accepted")
	}
	stub.mu.Lock()
	defer stub.mu.Unlock()
	if len(stub.calls) != 0 {
		t.Errorf("backend dispatched despite empty name: %v", stub.calls)
	}
}
