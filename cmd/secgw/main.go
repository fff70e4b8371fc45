// Command secgw runs the SEC archive gateway: one long-running daemon
// that owns many archives against a fleet of secnode storage nodes and
// serves them to concurrent clients over the framed TCP protocol
// (commit, retrieve, retrieve-all, log, info, compact, scrub, repair).
// Writers are serialized per archive behind a bounded admission queue,
// and every client of an archive shares its decoded-version read cache,
// so hot reads are served from gateway memory with zero node RPCs.
//
// Usage:
//
//	secgw -addr 127.0.0.1:7080 -nodes host1:7070,host2:7070,... -root /var/lib/secgw
//
// Flags:
//
//	-addr         TCP address to listen on (default 127.0.0.1:7080)
//	-nodes        comma-separated storage node addresses (required)
//	-root         directory archive manifests are cached under (default .)
//	-id           gateway identifier used in logs (default secgw)
//	-timeout      per-RPC timeout against storage nodes (default 5s)
//	-max-writers  per-archive commit admission bound (default 8)
//	-drain        how long shutdown waits for in-flight requests (default 10s)
//
// Clients connect with the secclient package (secclient.Dial) or with
// seccli's -gw flag. The process serves until SIGINT/SIGTERM, then shuts
// down gracefully: in-flight requests drain (bounded by -drain),
// connections close as they go idle, and every resident archive's
// manifest is folded on the nodes and cached under -root. A second
// signal aborts the drain immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	sec "github.com/secarchive/sec"
	"github.com/secarchive/sec/internal/gateway"
	"github.com/secarchive/sec/internal/transport"
)

// flagOutput receives flag-parse diagnostics and -h usage text; tests
// redirect it to assert the usage output stays complete.
var flagOutput io.Writer = os.Stderr

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "secgw:", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled (the signal arrives), then drains
// in-flight requests and folds every resident archive's manifest. If
// ready is non-nil it receives the bound address once the server is
// listening.
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("secgw", flag.ContinueOnError)
	fs.SetOutput(flagOutput)
	var (
		addr       = fs.String("addr", "127.0.0.1:7080", "TCP address to listen on")
		nodesFlag  = fs.String("nodes", "", "comma-separated storage node addresses (required)")
		root       = fs.String("root", ".", "directory archive manifests are cached under")
		id         = fs.String("id", "secgw", "gateway identifier used in logs")
		timeout    = fs.Duration("timeout", 5*time.Second, "per-RPC timeout against storage nodes")
		maxWriters = fs.Int("max-writers", gateway.DefaultMaxQueuedWriters, "per-archive commit admission bound (active writer plus waiters)")
		drain      = fs.Duration("drain", 10*time.Second, "how long shutdown waits for in-flight requests to finish")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: secgw -nodes host:port,... [-addr host:port] [-root dir] [-id name] [-timeout duration] [-max-writers n] [-drain duration]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if *nodesFlag == "" {
		return errors.New("secgw: -nodes is required")
	}
	logger := log.New(os.Stderr, *id+": ", log.LstdFlags)
	addrs := strings.Split(*nodesFlag, ",")
	nodes := make([]sec.StorageNode, len(addrs))
	remotes := make([]*sec.RemoteNode, len(addrs))
	for i, nodeAddr := range addrs {
		remote := sec.DialNode(fmt.Sprintf("node-%d", i), strings.TrimSpace(nodeAddr), transport.WithTimeout(*timeout))
		nodes[i] = remote
		remotes[i] = remote
	}
	defer func() {
		for _, r := range remotes {
			_ = r.Close()
		}
	}()
	gw, err := gateway.New(gateway.Config{
		Cluster:          sec.NewCluster(nodes),
		Root:             *root,
		MaxQueuedWriters: *maxWriters,
	})
	if err != nil {
		return err
	}
	server := transport.NewServer(nil, transport.WithArchiveBackend(gw))
	bound, err := server.Listen(*addr)
	if err != nil {
		return err
	}
	logger.Printf("serving archives on %s (%d nodes, manifests in %s)", bound, len(nodes), *root)
	if ready != nil {
		ready <- bound.String()
	}
	<-ctx.Done()
	logger.Printf("shutting down: draining in-flight requests (up to %v)", *drain)
	// A fresh signal context re-arms SIGINT/SIGTERM, so a second signal
	// cancels the drain and force-closes instead of waiting it out.
	drainCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	drainCtx, cancelDrain := context.WithTimeout(drainCtx, *drain)
	defer cancelDrain()
	err = server.Shutdown(drainCtx)
	if err != nil {
		logger.Printf("drain aborted: %v", err)
	}
	// Manifests persist even when the drain was aborted: give Close its
	// own short grace period instead of the (possibly dead) drain context.
	closeCtx, cancelClose := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelClose()
	if cerr := gw.Close(closeCtx); cerr != nil {
		logger.Printf("manifest persistence incomplete: %v", cerr)
		if err == nil {
			err = cerr
		}
	}
	stats := gw.Stats()
	logger.Printf("served %d commits, %d retrieves (%d busy rejections, %d conflicts) across %d archives",
		stats.Commits, stats.Retrieves, stats.BusyRejections, stats.Conflicts, stats.ArchivesOpen)
	return err
}
