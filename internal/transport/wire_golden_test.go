package transport

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/obs"
	"github.com/secarchive/sec/internal/store"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/arch_wire.golden from what the code emits now")

const archWireGolden = "testdata/arch_wire.golden"

// goldenBackend answers every archive op with fixed values that leave no
// response field at its zero value, so a renamed, dropped or reordered
// field changes the bytes on the wire. The archive name selects a failure.
type goldenBackend struct{}

func (goldenBackend) fail(name string) error {
	switch name {
	case "busy":
		return fmt.Errorf("gateway: archive %q writer queue full (8 writers): %w", name, store.ErrBusy)
	case "conflict":
		return fmt.Errorf("gateway: archive %q has 3 versions, commit expected 2: %w", name, store.ErrConflict)
	case "prov":
		return &store.ShardError{Node: "node-4", Shard: store.ShardID{Object: "prov/v2-delta", Row: 7}, Op: "get-batch", Err: store.ErrNodeDown}
	}
	return nil
}

var goldenSpec = ArchiveSpec{
	Scheme: "reversed-sec", Code: "systematic-cauchy", Field: "gf8", N: 6, K: 3, BlockSize: 4,
	Placement: "colocated", MaxChainLength: 4, CheckpointEvery: 8, CompressDeltas: true, ReadCacheBytes: 4096,
}

var goldenInfo = ArchiveInfo{
	Manifest: core.Manifest{
		Name: "gold",
		Spec: goldenSpec,
		Entries: []core.ManifestEntry{
			{Version: 1, Full: true, Length: 12, Checkpoint: true},
			{Version: 2, Delta: true, Gamma: 1, Length: 11, Base: 1, Compressed: true, Support: []int{2}},
		},
	},
	Versions:      2,
	Capacity:      12,
	Cache:         &core.CacheStats{Hits: 1, Misses: 2, BytesServed: 3, Bytes: 4, Versions: 5, Evictions: 6, Budget: 7},
	QueuedWriters: 1,
	Nodes: []ArchiveNodeStatus{{
		Health: store.NodeHealth{Node: 1, ID: "n1", Successes: 3, Failures: 4, ProbeFailures: 5, Latency: 7 * time.Millisecond},
		Up:     true,
	}},
}

var goldenStats = core.RetrievalStats{
	NodeReads: 9, SparseReads: 1, FullReads: 1, CompressedReads: 1, CacheHits: 3, CacheBytes: 4,
	Objects: []core.ObjectRead{
		{Version: 1, Reads: 3},
		{Version: 2, Delta: true, Gamma: 1, Reads: 2, Sparse: true},
		{Version: 3, Delta: true, Gamma: 1, Reads: 1, Compressed: true},
	},
}

var goldenCompaction = core.CompactionInfo{
	MaxChainLength: 4, Rebased: []int{3, 4}, Promoted: []int{5}, ShardWrites: 6,
	SupersededShards: 9, NodeReads: 10, PlannedReadGain: 11,
}

func (b goldenBackend) Create(_ context.Context, name string, spec ArchiveSpec) (ArchiveInfo, error) {
	if spec.Manifest(name).Scheme != goldenInfo.Manifest.Scheme {
		return ArchiveInfo{}, fmt.Errorf("golden backend: spec arrived as %+v", spec)
	}
	return goldenInfo, b.fail(name)
}

func (b goldenBackend) Commit(_ context.Context, name string, _ int, _ []byte) (core.CommitInfo, error) {
	if err := b.fail(name); err != nil {
		return core.CommitInfo{}, err
	}
	ci := goldenCompaction
	return core.CommitInfo{
		Version: 3, StoredDelta: true, StoredFull: true, Checkpoint: true, Compressed: true, Gamma: 1,
		ShardWrites: 10, OrphanShards: 1, ReclaimedShards: 2, Compaction: &ci,
	}, nil
}

func (b goldenBackend) Retrieve(_ context.Context, name string, version int) (ArchiveVersion, error) {
	if err := b.fail(name); err != nil {
		return ArchiveVersion{}, err
	}
	return ArchiveVersion{Version: version, Data: []byte("version three"), Stats: goldenStats}, nil
}

func (b goldenBackend) RetrieveAll(_ context.Context, name string, _ int) ([][]byte, core.RetrievalStats, error) {
	return [][]byte{[]byte("one"), nil, []byte("version three")}, goldenStats, b.fail(name)
}

func (b goldenBackend) Log(_ context.Context, name string) ([]ArchiveLogEntry, error) {
	entries := goldenInfo.Manifest.Entries
	return []ArchiveLogEntry{
		{ManifestEntry: entries[0], ChainDepth: 1, PlannedReads: 3},
		{ManifestEntry: entries[1], ChainDepth: 2, PlannedReads: 4},
	}, b.fail(name)
}

func (b goldenBackend) Info(_ context.Context, name string) (ArchiveInfo, error) {
	return goldenInfo, b.fail(name)
}

func (b goldenBackend) Compact(_ context.Context, name string, _ int) (CompactReport, error) {
	return CompactReport{Info: goldenCompaction, Deleted: 12, Orphans: 13}, b.fail(name)
}

func (b goldenBackend) Scrub(_ context.Context, name string, _ bool) (core.ScrubReport, error) {
	return core.ScrubReport{ShardsChecked: 1, ShardsMissing: 2, ShardsCorrupt: 3, ShardsUnreachable: 4, ObjectsUndecodable: 5, Repaired: 6, ObjectsUnverified: 7}, b.fail(name)
}

func (b goldenBackend) Repair(_ context.Context, name string, _ int) (core.RepairReport, error) {
	return core.RepairReport{ShardsChecked: 1, ShardsHealthy: 2, ShardsRepaired: 3, NodeReads: 4}, b.fail(name)
}

// wireTap records both directions of one served connection.
type wireTap struct {
	net.Conn
	mu      sync.Mutex
	in, out bytes.Buffer
}

func (w *wireTap) Read(p []byte) (int, error) {
	n, err := w.Conn.Read(p)
	w.mu.Lock()
	w.in.Write(p[:n])
	w.mu.Unlock()
	return n, err
}

func (w *wireTap) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.out.Write(p)
	w.mu.Unlock()
	return w.Conn.Write(p)
}

// drain returns and clears what crossed the wire since the last call.
func (w *wireTap) drain() (req, resp []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	req = append([]byte(nil), w.in.Bytes()...)
	resp = append([]byte(nil), w.out.Bytes()...)
	w.in.Reset()
	w.out.Reset()
	return req, resp
}

// TestArchiveWireGolden pins the bytes of every archive op (codes 10..18),
// and of traced ones (code 19 wrapping them):
// the request frame the client stub writes and the response frame the
// server dispatch answers with, length prefix included, are compared to the
// committed recording. Every commit that passes therefore interoperates
// with every other: each decodes what the other sends. Regenerate with
// -update only for a deliberate, versioned protocol change.
func TestArchiveWireGolden(t *testing.T) {
	var tap *wireTap
	srv := NewServer(nil, WithArchiveBackend(goldenBackend{}), WithConnWrapper(func(c net.Conn) net.Conn {
		tap = &wireTap{Conn: c}
		return tap
	}))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	// One pooled connection and no pings: everything crosses the one tap.
	client := NewArchiveClient("gw-golden", addr.String(), WithTimeout(2*time.Second), WithPoolSize(1))
	t.Cleanup(func() { _ = client.Close() })
	ctx := t.Context()
	traced := obs.WithTrace(ctx, 0x0123456789abcdef)

	spec := goldenSpec
	cases := []struct {
		name string
		call func() error
		want error // sentinel the failure cases must still decode to
	}{
		{"create", func() error { _, err := client.Create(ctx, "gold", spec); return err }, nil},
		{"commit", func() error { _, err := client.Commit(ctx, "gold", -1, []byte("version three")); return err }, nil},
		{"commit-expect", func() error { _, err := client.Commit(ctx, "gold", 2, []byte("version three")); return err }, nil},
		{"get", func() error { _, err := client.Retrieve(ctx, "gold", 3); return err }, nil},
		{"get-all", func() error { _, _, err := client.RetrieveAll(ctx, "gold", 0); return err }, nil},
		{"log", func() error { _, err := client.Log(ctx, "gold"); return err }, nil},
		{"info", func() error { _, err := client.Info(ctx, "gold"); return err }, nil},
		{"compact", func() error { _, err := client.Compact(ctx, "gold", 4); return err }, nil},
		{"scrub", func() error { _, err := client.Scrub(ctx, "gold", true); return err }, nil},
		{"repair", func() error { _, err := client.Repair(ctx, "gold", 5); return err }, nil},
		{"busy", func() error { _, err := client.Commit(ctx, "busy", -1, []byte("x")); return err }, store.ErrBusy},
		{"conflict", func() error { _, err := client.Commit(ctx, "conflict", 2, []byte("x")); return err }, store.ErrConflict},
		{"provenance", func() error { _, err := client.Retrieve(ctx, "prov", 2); return err }, store.ErrNodeDown},
		// A traced request is the untraced one wrapped in opTraced.
		{"traced-commit", func() error { _, err := client.Commit(traced, "gold", 2, []byte("version three")); return err }, nil},
		{"traced-get", func() error { _, err := client.Retrieve(traced, "gold", 3); return err }, nil},
		{"traced-busy", func() error { _, err := client.Commit(traced, "busy", -1, []byte("x")); return err }, store.ErrBusy},
	}
	var got strings.Builder
	for _, tc := range cases {
		if err := tc.call(); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		req, resp := tap.drain()
		fmt.Fprintf(&got, "%s request %s\n%s response %s\n", tc.name, hex.EncodeToString(req), tc.name, hex.EncodeToString(resp))
	}
	if *updateGolden {
		if err := os.WriteFile(archWireGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(archWireGolden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("recorded %d frames, golden file has %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("frame differs from the golden recording:\n got  %s\n want %s", gotLines[i], wantLines[i])
		}
	}
}
