// Command seccli manages a SEC versioned archive stored across secnode
// servers. The nodes hold the archive's shards and its manifest; a local
// manifest file caches the manifest in the form the nodes hold, and
// `export` writes it as JSON. With -gw the same commands run against a
// secgw gateway daemon instead: the gateway owns the manifest and the
// cluster connections, and seccli becomes a thin remote client. Both modes run
// through the secclient SDK, so local and remote use are one code path.
//
// Usage:
//
//	seccli [-nodes addrs] [-manifest path] [-timeout d] <subcommand> [flags]
//	seccli -gw host:port [-name archive] [-timeout d] <subcommand> [flags]
//
//	seccli -nodes 127.0.0.1:7070,127.0.0.1:7071,... -manifest a.json init \
//	       -scheme basic-sec -code non-systematic-cauchy -n 6 -k 3 -blocksize 1024 \
//	       -max-chain 8 -checkpoint-every 16 -compress -read-cache-bytes 1048576
//	seccli -nodes ... -manifest a.json commit document.bin
//	seccli -nodes ... -manifest a.json get -version 2 -out document.v2.bin
//	seccli -nodes ... -manifest a.json info
//	seccli -nodes ... -manifest a.json repair -node 2
//	seccli -nodes ... -manifest a.json scrub -repair
//	seccli -nodes ... -manifest a.json compact -max-chain 4
//	seccli -nodes ... -manifest recovered.json attach -name archive
//	seccli -nodes ... -manifest a.json export -out a.export.json
//	seccli -gw 127.0.0.1:7080 -name archive commit document.bin
//
// Global flags:
//
//	-nodes     comma-separated secnode addresses (required without -gw;
//	           shard i goes to node i)
//	-manifest  path of the archive manifest file (default archive.json;
//	           ignored with -gw, the gateway owns manifests)
//	-gw        secgw gateway address; commands run remotely against it
//	-name      archive name (default: the manifest's name, or "archive"
//	           with -gw)
//	-timeout   deadline for the whole operation (0 = none); SIGINT/SIGTERM
//	           also cancel the operation context immediately
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	sec "github.com/secarchive/sec"
	"github.com/secarchive/sec/internal/gateway"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/secclient"
)

func main() {
	// SIGINT/SIGTERM cancel the operation context, so a retrieval stuck on
	// a dead node aborts promptly instead of waiting out every timeout.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "seccli:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("seccli", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		nodesFlag    = fs.String("nodes", "", "comma-separated secnode addresses (shard i goes to node i)")
		manifestPath = fs.String("manifest", "archive.json", "path of the archive manifest file (ignored with -gw)")
		gwFlag       = fs.String("gw", "", "secgw gateway address; commands run remotely against it")
		nameFlag     = fs.String("name", "", "archive name (default: the manifest's name, or \"archive\" with -gw)")
		timeout      = fs.Duration("timeout", 0, "deadline for the whole operation (0 = no deadline; signals still cancel)")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: seccli [flags] <init|commit|get|info|repair|scrub|compact|attach|export> [subcommand flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() == 0 {
		return errors.New("missing subcommand: init, commit, get, info, repair, scrub, compact, attach or export")
	}
	if *gwFlag == "" && *nodesFlag == "" {
		return errors.New("-nodes is required (or -gw to use a gateway)")
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// Both modes speak through one secclient.Client: a remote gateway over
	// TCP, or a single-archive gateway embedded in this process whose
	// manifest is pinned to -manifest.
	var client *secclient.Client
	if *gwFlag != "" {
		client = secclient.Dial(*gwFlag)
		defer client.Close()
	} else {
		cluster, closeNodes := dialCluster(strings.Split(*nodesFlag, ","))
		defer closeNodes()
		gw, err := gateway.New(gateway.Config{
			Cluster:      cluster,
			ManifestPath: func(string) string { return *manifestPath },
		})
		if err != nil {
			return err
		}
		// Close folds the manifest on the nodes and caches that snapshot in
		// -manifest, with the clean mark that lets the next command skip
		// the nodes.
		defer func() { err = errors.Join(err, gw.Close(ctx)) }()
		client = secclient.Embed(gw)
	}

	sub, subArgs := fs.Arg(0), fs.Args()[1:]
	// init and attach name the archive themselves; every other command
	// targets an existing one. Resolution is lazy so `seccli get -h` works
	// without a manifest.
	name := func() (string, error) {
		return resolveName(*gwFlag, *nameFlag, *manifestPath)
	}
	switch sub {
	case "init":
		return cmdInit(ctx, out, client, *gwFlag, *nameFlag, *manifestPath, subArgs)
	case "commit":
		return cmdCommit(ctx, out, client, name, subArgs)
	case "get":
		return cmdGet(ctx, out, client, name, subArgs)
	case "info":
		return cmdInfo(ctx, out, client, name)
	case "repair":
		return cmdRepair(ctx, out, client, name, subArgs)
	case "scrub":
		return cmdScrub(ctx, out, client, name, subArgs)
	case "compact":
		return cmdCompact(ctx, out, client, name, subArgs)
	case "attach":
		return cmdAttach(ctx, out, client, *gwFlag, *nameFlag, *manifestPath, subArgs)
	case "export":
		return cmdExport(ctx, out, client, name, subArgs)
	default:
		return fmt.Errorf("unknown subcommand %q", sub)
	}
}

func dialCluster(addrs []string) (*sec.Cluster, func()) {
	nodes := make([]sec.StorageNode, len(addrs))
	remotes := make([]*sec.RemoteNode, len(addrs))
	for i, addr := range addrs {
		remote := sec.DialNode(fmt.Sprintf("node-%d", i), strings.TrimSpace(addr))
		nodes[i] = remote
		remotes[i] = remote
	}
	return sec.NewCluster(nodes), func() {
		for _, r := range remotes {
			_ = r.Close()
		}
	}
}

// resolveName picks the archive a command operates on: the explicit -name,
// else (remote mode) the default "archive", else the name recorded in the
// local manifest file.
func resolveName(gw, nameFlag, manifestPath string) (string, error) {
	if nameFlag != "" {
		return nameFlag, nil
	}
	if gw != "" {
		return "archive", nil
	}
	f, err := os.Open(manifestPath)
	if err != nil {
		return "", fmt.Errorf("opening manifest (run init first?): %w", err)
	}
	defer f.Close()
	var m struct {
		Name string `json:"name"`
	}
	if err := json.NewDecoder(f).Decode(&m); err != nil {
		return "", fmt.Errorf("decoding manifest %s: %w", manifestPath, err)
	}
	if m.Name == "" {
		return "", fmt.Errorf("manifest %s names no archive", manifestPath)
	}
	return m.Name, nil
}

// nameFunc resolves the target archive's name on demand, after subcommand
// flags (including -h) have been handled.
type nameFunc func() (string, error)

func cmdInit(ctx context.Context, out io.Writer, client *secclient.Client, gw, globalName, manifestPath string, args []string) error {
	fs := flag.NewFlagSet("init", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		scheme     = fs.String("scheme", "basic-sec", "storage scheme")
		code       = fs.String("code", "non-systematic-cauchy", "erasure code construction: non-systematic-cauchy or systematic-cauchy")
		n          = fs.Int("n", 6, "shards per object")
		k          = fs.Int("k", 3, "data blocks per object")
		blockSize  = fs.Int("blocksize", 1024, "bytes per block")
		name       = fs.String("name", "archive", "archive name (shard ID prefix)")
		maxChain   = fs.Int("max-chain", 0, "auto-compact when a version's planned read would apply more than this many deltas (0 = never)")
		checkpoint = fs.Int("checkpoint-every", 0, "store/retain a full codeword at least every N versions (0 = scheme default)")
		compress   = fs.Bool("compress", false, "store sparse deltas (gamma <= k-1) compressed: gamma non-zero blocks under a (gamma+n-k, gamma) code")
		readCache  = fs.Int("read-cache-bytes", 0, "decoded-version read cache budget in bytes (0 = disabled)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	archiveName := *name
	if globalName != "" {
		archiveName = globalName
	}
	info, err := client.Create(ctx, archiveName, secclient.Spec{
		Scheme:          *scheme,
		Code:            *code,
		N:               *n,
		K:               *k,
		BlockSize:       *blockSize,
		MaxChainLength:  *maxChain,
		CheckpointEvery: *checkpoint,
		CompressDeltas:  *compress,
		ReadCacheBytes:  *readCache,
	})
	if err != nil {
		return err
	}
	where := fmt.Sprintf("manifest %s", manifestPath)
	if gw != "" {
		where = fmt.Sprintf("gateway %s", gw)
	}
	fmt.Fprintf(out, "initialized %s archive: (n,k)=(%d,%d), capacity %d bytes, %s\n",
		info.Manifest.Scheme, *n, *k, info.Capacity, where)
	return nil
}

func cmdCommit(ctx context.Context, out io.Writer, client *secclient.Client, resolve nameFunc, args []string) error {
	if len(args) != 1 {
		return errors.New("usage: commit <file>")
	}
	name, err := resolve()
	if err != nil {
		return err
	}
	content, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	// The gateway owns the crash-safe ordering: commit, persist the
	// manifest (even when auto-compaction failed mid-commit), replicate it
	// to the nodes, then reclaim what the commit superseded.
	info, err := client.Commit(ctx, name, content)
	if err != nil {
		return err
	}
	what := "full version"
	if info.StoredDelta {
		what = fmt.Sprintf("delta (gamma=%d)", info.Gamma)
		if info.StoredFull {
			what += " + full"
		}
	}
	if info.Checkpoint {
		what += " (checkpoint)"
	}
	fmt.Fprintf(out, "committed version %d as %s: %d shard writes\n", info.Version, what, info.ShardWrites)
	if ci := info.Compaction; ci != nil && ci.Changed() {
		fmt.Fprintf(out, "auto-compacted to max chain %d: %d rebased, %d promoted\n",
			ci.MaxChainLength, len(ci.Rebased), len(ci.Promoted))
	}
	if info.ReclaimedShards+info.OrphanShards > 0 {
		fmt.Fprintf(out, "%d superseded shards deleted (%d orphaned)\n", info.ReclaimedShards, info.OrphanShards)
	}
	return nil
}

func cmdGet(ctx context.Context, out io.Writer, client *secclient.Client, resolve nameFunc, args []string) error {
	fs := flag.NewFlagSet("get", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		version = fs.Int("version", 0, "version to retrieve (default: latest)")
		outPath = fs.String("out", "", "output file (default: stdout)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	name, err := resolve()
	if err != nil {
		return err
	}
	got, err := client.Retrieve(ctx, name, *version)
	if err != nil {
		return err
	}
	if *outPath == "" {
		if _, err := out.Write(got.Data); err != nil {
			return err
		}
	} else if err := os.WriteFile(*outPath, got.Data, 0o644); err != nil {
		return err
	}
	stats := got.Stats
	line := fmt.Sprintf("retrieved version %d (%d bytes) with %d node reads (%d sparse, %d full objects)",
		got.Version, len(got.Data), stats.NodeReads, stats.SparseReads, stats.FullReads)
	if stats.CompressedReads > 0 {
		line += fmt.Sprintf(", %d compressed", stats.CompressedReads)
	}
	if stats.CacheHits > 0 {
		line += fmt.Sprintf(", %d cache hits", stats.CacheHits)
	}
	fmt.Fprintln(out, line)
	return nil
}

func cmdInfo(ctx context.Context, out io.Writer, client *secclient.Client, resolve nameFunc) error {
	name, err := resolve()
	if err != nil {
		return err
	}
	info, err := client.Info(ctx, name)
	if err != nil {
		return err
	}
	m := info.Manifest
	header := fmt.Sprintf("archive %q: scheme=%s code=%s (n,k)=(%d,%d) blocksize=%d versions=%d",
		m.Name, m.Scheme, m.Code, m.N, m.K, m.BlockSize, info.Versions)
	if m.CompressDeltas {
		header += fmt.Sprintf(" compress=on(gamma<=%d)", m.K-1)
	}
	if info.Cache != nil {
		header += fmt.Sprintf(" read-cache=%dB", info.Cache.Budget)
	}
	fmt.Fprintln(out, header)
	entries, err := client.Log(ctx, name)
	if err != nil {
		return err
	}
	for _, e := range entries {
		kind := "no object (reached via chain)"
		if e.Full {
			kind = "full"
		}
		if e.Delta {
			kind = fmt.Sprintf("delta gamma=%d", e.Gamma)
			if e.Compressed {
				kind = fmt.Sprintf("compressed delta gamma=%d", e.Gamma)
			}
			if e.Base != 0 && e.Base != e.Version-1 {
				kind += fmt.Sprintf(" base=%d", e.Base)
			}
			if e.Full {
				kind = "full + " + kind
			}
		}
		if e.Checkpoint {
			kind += " (checkpoint)"
		}
		fmt.Fprintf(out, "  v%d: %s, %d bytes, chain depth %d, planned reads %d\n",
			e.Version, kind, e.Length, e.ChainDepth, e.PlannedReads)
	}
	// Per-node health: the gateway probes each node at Info time, and the
	// health snapshot carries the accumulated failure counters and the read
	// latency estimate, so degraded nodes are visible before a retrieval
	// trips over them, and slow ones - which reads list last - are marked.
	health := make([]store.NodeHealth, len(info.Nodes))
	for i, n := range info.Nodes {
		health[i] = n.Health
	}
	slow := store.Slow(health)
	fmt.Fprintf(out, "nodes (%d):\n", len(info.Nodes))
	for i, n := range info.Nodes {
		h := n.Health
		probe := "up"
		if !n.Up {
			probe = "DOWN"
		}
		line := fmt.Sprintf("  node %d (%s): probe %s, ok=%d fail=%d",
			h.Node, h.ID, probe, h.Successes, h.Failures)
		if h.ProbeFailures > 0 {
			line += fmt.Sprintf(" probe-failures=%d", h.ProbeFailures)
		}
		if h.Latency > 0 {
			line += fmt.Sprintf(" latency=%v", h.Latency.Round(time.Microsecond))
			if slow[i] {
				line += " slow"
			}
		}
		fmt.Fprintln(out, line)
	}
	return nil
}

func cmdRepair(ctx context.Context, out io.Writer, client *secclient.Client, resolve nameFunc, args []string) error {
	fs := flag.NewFlagSet("repair", flag.ContinueOnError)
	fs.SetOutput(out)
	node := fs.Int("node", -1, "cluster node index to repair (position in -nodes)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *node < 0 {
		return errors.New("repair: -node is required")
	}
	name, err := resolve()
	if err != nil {
		return err
	}
	report, err := client.Repair(ctx, name, *node)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "repaired node %d: %d shards checked, %d healthy, %d rebuilt (%d repair reads)\n",
		*node, report.ShardsChecked, report.ShardsHealthy, report.ShardsRepaired, report.NodeReads)
	return nil
}

func cmdScrub(ctx context.Context, out io.Writer, client *secclient.Client, resolve nameFunc, args []string) error {
	fs := flag.NewFlagSet("scrub", flag.ContinueOnError)
	fs.SetOutput(out)
	repair := fs.Bool("repair", false, "rewrite missing or corrupt shards")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	name, err := resolve()
	if err != nil {
		return err
	}
	report, err := client.Scrub(ctx, name, *repair)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "scrubbed: %d shards checked, %d missing, %d corrupt, %d unreachable, %d undecodable objects, %d unverified objects, %d repaired\n",
		report.ShardsChecked, report.ShardsMissing, report.ShardsCorrupt,
		report.ShardsUnreachable, report.ObjectsUndecodable, report.ObjectsUnverified, report.Repaired)
	return nil
}

func cmdCompact(ctx context.Context, out io.Writer, client *secclient.Client, resolve nameFunc, args []string) error {
	fs := flag.NewFlagSet("compact", flag.ContinueOnError)
	fs.SetOutput(out)
	maxChain := fs.Int("max-chain", 0, "most deltas any version's planned read may apply afterwards (default: the archive's configured MaxChainLength)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	name, err := resolve()
	if err != nil {
		return err
	}
	// The gateway runs the crash-safe ordering: rewrite and swap while
	// queueing the superseded codewords, persist the new manifest (locally
	// and onto the nodes), and only then reclaim.
	report, err := client.Compact(ctx, name, *maxChain)
	if err != nil {
		return err
	}
	info := report.Info
	if !info.Changed() {
		fmt.Fprintf(out, "chains already within %d deltas: nothing to compact, %d superseded shards deleted (%d orphaned)\n",
			info.MaxChainLength, report.Deleted, report.Orphans)
		return nil
	}
	fmt.Fprintf(out, "compacted to max chain %d: %d versions rebased, %d promoted to checkpoints, %d shard writes, %d superseded shards deleted (%d orphaned), %d node reads\n",
		info.MaxChainLength, len(info.Rebased), len(info.Promoted), info.ShardWrites, report.Deleted, report.Orphans, info.NodeReads)
	return nil
}

func cmdAttach(ctx context.Context, out io.Writer, client *secclient.Client, gw, globalName, manifestPath string, args []string) error {
	fs := flag.NewFlagSet("attach", flag.ContinueOnError)
	fs.SetOutput(out)
	name := fs.String("name", "archive", "archive name to recover from the cluster")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	archiveName := *name
	if globalName != "" {
		archiveName = globalName
	}
	if gw == "" {
		if _, err := os.Stat(manifestPath); err == nil {
			return fmt.Errorf("manifest %s already exists", manifestPath)
		}
	}
	// Opening an archive the gateway has no manifest for falls back to the
	// cluster-replicated copy and re-persists it — which, with the
	// manifest pinned to -manifest, is exactly the recovery attach does.
	info, err := client.Info(ctx, archiveName)
	if err != nil {
		return err
	}
	where := fmt.Sprintf("manifest written to %s", manifestPath)
	if gw != "" {
		where = fmt.Sprintf("served by gateway %s", gw)
	}
	fmt.Fprintf(out, "attached to archive %q: %d versions, %s\n", archiveName, info.Versions, where)
	return nil
}

// cmdExport writes the archive's manifest, as its gateway serves it, in the
// JSON Archive.Save writes: what other programs and builds that read only
// JSON (their core.Load or sec.OpenArchive) open against the same nodes.
func cmdExport(ctx context.Context, out io.Writer, client *secclient.Client, resolve nameFunc, args []string) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	fs.SetOutput(out)
	outPath := fs.String("out", "", "output file (default: stdout)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	name, err := resolve()
	if err != nil {
		return err
	}
	info, err := client.Info(ctx, name)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(info.Manifest, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *outPath == "" {
		_, err = out.Write(data)
		return err
	}
	return os.WriteFile(*outPath, data, 0o644)
}
