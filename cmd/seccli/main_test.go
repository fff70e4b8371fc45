package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	sec "github.com/secarchive/sec"
	"github.com/secarchive/sec/internal/faults"
	"github.com/secarchive/sec/internal/gateway"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/transport"
)

// startNodes launches n in-process secnode-equivalent servers and returns
// the -nodes flag value plus the backing stores.
func startNodes(t *testing.T, n int) (string, []*sec.MemNode) {
	t.Helper()
	addrs := make([]string, n)
	backings := make([]*sec.MemNode, n)
	for i := 0; i < n; i++ {
		backings[i] = sec.NewMemNode("t")
		srv := sec.NewNodeServer(backings[i])
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		addrs[i] = addr.String()
	}
	return strings.Join(addrs, ","), backings
}

func TestEndToEndCLI(t *testing.T) {
	nodes, _ := startNodes(t, 6)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "archive.json")

	var out bytes.Buffer
	err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "init",
		"-scheme", "basic-sec", "-code", "non-systematic-cauchy",
		"-n", "6", "-k", "3", "-blocksize", "16"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "initialized basic-sec archive") {
		t.Errorf("init output: %s", out.String())
	}

	// Commit two versions differing in one block.
	v1 := bytes.Repeat([]byte{'a'}, 48)
	v2 := append([]byte(nil), v1...)
	v2[0] = 'b'
	file1 := filepath.Join(dir, "v1.bin")
	file2 := filepath.Join(dir, "v2.bin")
	if err := os.WriteFile(file1, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(file2, v2, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "commit", file1}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "committed version 1 as full version") {
		t.Errorf("commit 1 output: %s", out.String())
	}
	out.Reset()
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "commit", file2}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "committed version 2 as delta (gamma=1)") {
		t.Errorf("commit 2 output: %s", out.String())
	}

	// Retrieve both versions.
	got1 := filepath.Join(dir, "out1.bin")
	out.Reset()
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "get", "-version", "1", "-out", got1}, &out); err != nil {
		t.Fatal(err)
	}
	content, err := os.ReadFile(got1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(content, v1) {
		t.Error("version 1 content mismatch")
	}
	got2 := filepath.Join(dir, "out2.bin")
	out.Reset()
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "get", "-out", got2}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "with 5 node reads") {
		t.Errorf("get output: %s", out.String())
	}
	content, err = os.ReadFile(got2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(content, v2) {
		t.Error("latest content mismatch")
	}

	// Info summarises the archive.
	out.Reset()
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "info"}, &out); err != nil {
		t.Fatal(err)
	}
	info := out.String()
	if !strings.Contains(info, "versions=2") || !strings.Contains(info, "delta gamma=1") {
		t.Errorf("info output: %s", info)
	}
	// The health section probes every node; all are live here.
	if !strings.Contains(info, "probe up") || !strings.Contains(info, "fail=0") {
		t.Errorf("info output lacks node health: %s", info)
	}
	if strings.Contains(info, "probe DOWN") {
		t.Errorf("info reports a live node down: %s", info)
	}
}

// TestCLICompressedArchive drives the compressed-delta + read-cache
// configuration end to end: init with -compress and -read-cache-bytes,
// commit a sparse chain, and read every version back through a fresh
// process (manifest round-trip included).
func TestCLICompressedArchive(t *testing.T) {
	nodes, _ := startNodes(t, 6)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "archive.json")
	var out bytes.Buffer
	err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "init",
		"-n", "6", "-k", "3", "-blocksize", "16",
		"-compress", "-read-cache-bytes", "1048576"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	versions := make([][]byte, 0, 4)
	object := bytes.Repeat([]byte{'a'}, 48)
	file := filepath.Join(dir, "v.bin")
	for j := 0; j < 4; j++ {
		object = append([]byte(nil), object...)
		object[(j%3)*16] ^= 0x5A
		versions = append(versions, object)
		if err := os.WriteFile(file, object, 0o644); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "commit", file}, &out); err != nil {
			t.Fatal(err)
		}
	}
	// Info surfaces the compression policy and the compressed entries.
	out.Reset()
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "info"}, &out); err != nil {
		t.Fatal(err)
	}
	info := out.String()
	if !strings.Contains(info, "compress=on(gamma<=2)") || !strings.Contains(info, "read-cache=1048576B") {
		t.Errorf("info output lacks compression/cache config: %s", info)
	}
	if !strings.Contains(info, "compressed delta gamma=1") {
		t.Errorf("info output lacks compressed entries: %s", info)
	}
	// Every version reads back byte-identically; the delta versions report
	// compressed object reads.
	for v, want := range versions {
		got := filepath.Join(dir, "out.bin")
		out.Reset()
		if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "get",
			"-version", fmt.Sprint(v + 1), "-out", got}, &out); err != nil {
			t.Fatalf("get v%d: %v", v+1, err)
		}
		content, err := os.ReadFile(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(content, want) {
			t.Errorf("v%d differs through compressed CLI archive", v+1)
		}
		if v > 0 && !strings.Contains(out.String(), "compressed") {
			t.Errorf("get v%d output lacks compressed accounting: %s", v+1, out.String())
		}
	}
}

func TestCLIErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), []string{"info"}, &out); err == nil {
		t.Error("missing -nodes: want error")
	}
	if err := run(t.Context(), []string{"-nodes", "127.0.0.1:1"}, &out); err == nil {
		t.Error("missing subcommand: want error")
	}
	if err := run(t.Context(), []string{"-nodes", "127.0.0.1:1", "frob"}, &out); err == nil {
		t.Error("unknown subcommand: want error")
	}
	dir := t.TempDir()
	manifest := filepath.Join(dir, "m.json")
	if err := run(t.Context(), []string{"-nodes", "127.0.0.1:1", "-manifest", manifest, "commit", "x"}, &out); err == nil {
		t.Error("commit without init: want error")
	}
	if err := run(t.Context(), []string{"-nodes", "127.0.0.1:1", "-manifest", manifest, "init", "-scheme", "bogus"}, &out); err == nil {
		t.Error("bogus scheme: want error")
	}
}

func TestCLIRepair(t *testing.T) {
	nodes, backings := startNodes(t, 6)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "archive.json")
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "init", "-blocksize", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "v.bin")
	if err := os.WriteFile(file, bytes.Repeat([]byte{9}, 24), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "commit", file}, &out); err != nil {
		t.Fatal(err)
	}
	// Wipe node 4's backing store (device replacement).
	if err := backings[4].Delete(t.Context(), sec.ShardID{Object: "archive/v1-full", Row: 4}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "repair", "-node", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 rebuilt") {
		t.Errorf("repair output: %s", out.String())
	}
	// Second pass finds everything healthy.
	out.Reset()
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "repair", "-node", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 healthy, 0 rebuilt") {
		t.Errorf("second repair output: %s", out.String())
	}
	// Missing -node flag.
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "repair"}, &out); err == nil {
		t.Error("repair without -node: want error")
	}
}

func TestCLIScrub(t *testing.T) {
	nodes, backings := startNodes(t, 6)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "archive.json")
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "init", "-blocksize", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "v.bin")
	if err := os.WriteFile(file, bytes.Repeat([]byte{7}, 24), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "commit", file}, &out); err != nil {
		t.Fatal(err)
	}
	// Corrupt one shard silently.
	id := sec.ShardID{Object: "archive/v1-full", Row: 3}
	data, err := backings[3].Get(t.Context(), id)
	if err != nil {
		t.Fatal(err)
	}
	data = bytes.Clone(data) // node memory is read-only
	data[0] ^= 0xAA
	if err := backings[3].Put(t.Context(), id, data); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "scrub"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 corrupt") {
		t.Errorf("scrub output: %s", out.String())
	}
	out.Reset()
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "scrub", "-repair"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 repaired") {
		t.Errorf("scrub -repair output: %s", out.String())
	}
	out.Reset()
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "scrub"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "0 missing, 0 corrupt") {
		t.Errorf("post-repair scrub output: %s", out.String())
	}
}

func TestCLIAttachRecoversLostManifest(t *testing.T) {
	nodes, _ := startNodes(t, 6)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "archive.json")
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "init", "-blocksize", "8"}, &out); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "v.bin")
	want := bytes.Repeat([]byte{3}, 24)
	if err := os.WriteFile(file, want, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "commit", file}, &out); err != nil {
		t.Fatal(err)
	}
	// The laptop dies: the local manifest is gone.
	if err := os.Remove(manifest); err != nil {
		t.Fatal(err)
	}
	recovered := filepath.Join(dir, "recovered.json")
	out.Reset()
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", recovered, "attach", "-name", "archive"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "attached to archive") {
		t.Errorf("attach output: %s", out.String())
	}
	got := filepath.Join(dir, "out.bin")
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", recovered, "get", "-out", got}, &out); err != nil {
		t.Fatal(err)
	}
	content, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(content, want) {
		t.Error("recovered archive content mismatch")
	}
	// Attach refuses to clobber an existing manifest.
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", recovered, "attach"}, &out); err == nil {
		t.Error("attach over existing manifest: want error")
	}
	// Attach to a name that does not exist fails.
	ghost := filepath.Join(dir, "ghost.json")
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", ghost, "attach", "-name", "ghost"}, &out); err == nil {
		t.Error("attach to unknown archive: want error")
	}
}

func TestCLIInitRefusesOverwrite(t *testing.T) {
	nodes, _ := startNodes(t, 6)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "archive.json")
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "init"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "init"}, &out); err == nil {
		t.Error("double init: want error")
	}
}

func TestCLICompact(t *testing.T) {
	nodes, backings := startNodes(t, 6)
	dir := t.TempDir()
	manifest := filepath.Join(dir, "archive.json")
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "init",
		"-scheme", "reversed-sec", "-blocksize", "4"}, &out); err != nil {
		t.Fatal(err)
	}
	// Build a chain of 1 full + 7 deltas: version j+1 edits one block.
	object := bytes.Repeat([]byte{'x'}, 12)
	versions := [][]byte{append([]byte(nil), object...)}
	file := filepath.Join(dir, "v.bin")
	if err := os.WriteFile(file, object, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "commit", file}, &out); err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= 7; j++ {
		object = append([]byte(nil), object...)
		object[(j%3)*4] ^= 0xA5
		versions = append(versions, append([]byte(nil), object...))
		if err := os.WriteFile(file, object, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "commit", file}, &out); err != nil {
			t.Fatal(err)
		}
	}
	before := 0
	for _, b := range backings {
		before += b.Len()
	}
	out.Reset()
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "compact", "-max-chain", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "compacted to max chain 3") {
		t.Errorf("compact output: %s", out.String())
	}
	if !strings.Contains(out.String(), "superseded shards deleted") {
		t.Errorf("compact output lacks GC accounting: %s", out.String())
	}
	after := 0
	for _, b := range backings {
		after += b.Len()
	}
	if after >= before+4*6 { // superseded codewords must actually vanish
		t.Errorf("shards %d -> %d: nothing reclaimed", before, after)
	}
	// Every version still reads back byte-identically through the CLI.
	for v, want := range versions {
		got := filepath.Join(dir, "out.bin")
		out.Reset()
		if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "get",
			"-version", fmt.Sprint(v + 1), "-out", got}, &out); err != nil {
			t.Fatalf("get v%d: %v", v+1, err)
		}
		content, err := os.ReadFile(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(content, want) {
			t.Errorf("v%d differs after CLI compaction", v+1)
		}
	}
	// Info renders the compacted chain (rebased bases and depths).
	out.Reset()
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "info"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "chain depth") {
		t.Errorf("info output lacks chain depth: %s", out.String())
	}
	// A second compact pass is a no-op.
	out.Reset()
	if err := run(t.Context(), []string{"-nodes", nodes, "-manifest", manifest, "compact", "-max-chain", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "nothing to compact") {
		t.Errorf("second compact output: %s", out.String())
	}
}

// TestCLIUsageListsAllFlagsAndSubcommands pins the -h output to the
// current flag surface, so new flags cannot silently go undocumented
// (the PR-4 context flags once did).
func TestCLIUsageListsAllFlagsAndSubcommands(t *testing.T) {
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-h"}, &out); err != nil {
		t.Fatalf("-h: %v", err)
	}
	usage := out.String()
	for _, want := range []string{"-nodes", "-manifest", "-timeout", "-gw", "-name", "init", "commit", "get", "info", "repair", "scrub", "compact", "attach"} {
		if !strings.Contains(usage, want) {
			t.Errorf("usage output missing %q:\n%s", want, usage)
		}
	}
	// Subcommand -h prints usage to the writer and exits cleanly.
	out.Reset()
	if err := run(t.Context(), []string{"-nodes", "127.0.0.1:1", "init", "-h"}, &out); err != nil {
		t.Fatalf("init -h: %v", err)
	}
	for _, want := range []string{"-scheme", "-max-chain", "-checkpoint-every", "-compress", "-read-cache-bytes"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("init usage missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "-compress-gamma-max") {
		t.Errorf("init usage names the retired -compress-gamma-max:\n%s", out.String())
	}
	out.Reset()
	if err := run(t.Context(), []string{"-nodes", "127.0.0.1:1", "compact", "-h"}, &out); err != nil {
		t.Fatalf("compact -h: %v", err)
	}
	if !strings.Contains(out.String(), "-max-chain") {
		t.Errorf("compact usage missing -max-chain:\n%s", out.String())
	}
}

func TestCLITimeoutFlagBoundsOperations(t *testing.T) {
	// Dead addresses: init cannot put the new manifest on n-k+1 nodes, and
	// every other operation fails fast once -timeout expires.
	dead := strings.TrimSuffix(strings.Repeat("127.0.0.1:1,", 6), ",")
	dir := t.TempDir()
	manifest := filepath.Join(dir, "m.json")
	var out bytes.Buffer
	if err := run(t.Context(), []string{"-nodes", dead, "-manifest", manifest, "init", "-blocksize", "8"}, &out); err == nil {
		t.Fatal("init against dead nodes: want error")
	}
	// A manifest the root does not vouch for sends the open to the nodes.
	if err := os.WriteFile(manifest, []byte(`{"name": "archive"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	file := filepath.Join(dir, "v.bin")
	if err := os.WriteFile(file, bytes.Repeat([]byte{1}, 24), 0o644); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := run(t.Context(), []string{"-nodes", dead, "-manifest", manifest, "-timeout", "150ms", "commit", file}, &out)
	if err == nil {
		t.Fatal("commit against dead nodes with -timeout: want error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("-timeout did not bound the operation: took %v", elapsed)
	}
}

// TestCLIRemoteGateway drives the same subcommands against a secgw-shaped
// server over TCP: with -gw, seccli needs neither -nodes nor a local
// manifest, and embedded and remote use are byte-for-byte the same output.
// Node 0 answers reads 50ms late, so info reports it slow once a read has
// timed it.
func TestCLIRemoteGateway(t *testing.T) {
	nodes := []store.Node{faults.NewChaosNode(store.NewMemNode("mem-0"), faults.Schedule{
		Rules: []faults.Rule{{Kind: faults.FaultLatency, Ops: faults.OpGet, Latency: 50 * time.Millisecond}},
	})}
	for i := 1; i < 6; i++ {
		nodes = append(nodes, store.NewMemNode(fmt.Sprintf("mem-%d", i)))
	}
	gw, err := gateway.New(gateway.Config{
		Cluster: store.NewCluster(nodes),
		Root:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer(nil, transport.WithArchiveBackend(gw))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = srv.Close()
		_ = gw.Close(context.Background())
	})
	gwFlag := addr.String()

	dir := t.TempDir()
	var out bytes.Buffer
	err = run(t.Context(), []string{"-gw", gwFlag, "init", "-n", "6", "-k", "3", "-blocksize", "8", "-name", "docs"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "initialized basic-sec archive") ||
		!strings.Contains(out.String(), "gateway "+gwFlag) {
		t.Errorf("remote init output: %s", out.String())
	}

	file := filepath.Join(dir, "v1.bin")
	if err := os.WriteFile(file, bytes.Repeat([]byte{7}, 24), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run(t.Context(), []string{"-gw", gwFlag, "-name", "docs", "commit", file}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "committed version 1 as full version") {
		t.Errorf("remote commit output: %s", out.String())
	}

	got := filepath.Join(dir, "got.bin")
	out.Reset()
	if err := run(t.Context(), []string{"-gw", gwFlag, "-name", "docs", "get", "-out", got}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "retrieved version 1 (24 bytes)") {
		t.Errorf("remote get output: %s", out.String())
	}
	data, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, bytes.Repeat([]byte{7}, 24)) {
		t.Error("remote get returned different bytes")
	}

	out.Reset()
	if err := run(t.Context(), []string{"-gw", gwFlag, "-name", "docs", "info"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`archive "docs"`, "versions=1", "nodes (6):", "v1: full"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("remote info output missing %q:\n%s", want, out.String())
		}
	}
	// The get read rows 0-2: node 0's line carries its estimate, marked
	// slow, node 1's an estimate unmarked.
	lines := strings.Split(out.String(), "\n")
	if i := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "  node 0 ") }); i < 0 ||
		!strings.Contains(lines[i], " latency=") || !strings.HasSuffix(lines[i], " slow") {
		t.Errorf("remote info does not mark node 0 slow:\n%s", out.String())
	}
	if i := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, "  node 1 ") }); i < 0 ||
		!strings.Contains(lines[i], " latency=") || strings.HasSuffix(lines[i], " slow") {
		t.Errorf("remote info: node 1 wants an unmarked estimate:\n%s", out.String())
	}

	// Maintenance ops work remotely too.
	out.Reset()
	if err := run(t.Context(), []string{"-gw", gwFlag, "-name", "docs", "scrub"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "scrubbed: ") {
		t.Errorf("remote scrub output: %s", out.String())
	}

	// Without -name the remote default is "archive", which doesn't exist.
	if err := run(t.Context(), []string{"-gw", gwFlag, "info"}, &out); err == nil {
		t.Error("remote info for a nonexistent default archive: want error")
	}

	// attach against a gateway reports what it serves; no local manifest.
	out.Reset()
	if err := run(t.Context(), []string{"-gw", gwFlag, "attach", "-name", "docs"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `attached to archive "docs": 1 versions, served by gateway`) {
		t.Errorf("remote attach output: %s", out.String())
	}
}
