// Command secnode runs one SEC storage node served over the library's TCP
// protocol. A set of secnode processes forms the distributed back end for
// seccli or any program using the sec package with DialNode.
//
// Usage:
//
//	secnode -addr 127.0.0.1:7070 -id node-0 -data /var/lib/secnode -drain 10s
//
// Flags:
//
//	-addr   TCP address to listen on (default 127.0.0.1:7070)
//	-id     node identifier used in logs (default secnode)
//	-data   directory for durable shard storage (empty: volatile in-memory node)
//	-drain  how long shutdown waits for in-flight requests (default 10s)
//
// With -data the node is durable: shards live as checksummed files under
// the given directory, survive restarts (pointing a new secnode at the same
// directory serves the shards already there), and bit rot is detected at
// read time and reported to clients as a corrupt shard so scrub/repair can
// heal it. Without -data the node is in-memory and loses its shards on
// exit, which is only appropriate for simulations.
//
// The process serves until SIGINT/SIGTERM, then shuts down gracefully:
// in-flight requests drain (bounded by -drain), connections close as they
// go idle, and (for durable nodes) directory metadata is flushed to stable
// storage. A second signal aborts the drain immediately.
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
	"syscall"
	"time"

	sec "github.com/secarchive/sec"
)

// flagOutput receives flag-parse diagnostics and -h usage text; tests
// redirect it to assert the usage output stays complete.
var flagOutput io.Writer = os.Stderr

func main() {
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], nil); err != nil {
		fmt.Fprintln(os.Stderr, "secnode:", err)
		os.Exit(1)
	}
}

// run serves until ctx is cancelled (the signal arrives), then drains and
// flushes. If ready is non-nil it receives the bound address once the
// server is listening.
func run(ctx context.Context, args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("secnode", flag.ContinueOnError)
	fs.SetOutput(flagOutput)
	var (
		addr  = fs.String("addr", "127.0.0.1:7070", "TCP address to listen on")
		id    = fs.String("id", "secnode", "node identifier used in logs")
		data  = fs.String("data", "", "directory for durable shard storage (empty: volatile in-memory node)")
		drain = fs.Duration("drain", 10*time.Second, "how long shutdown waits for in-flight requests to finish")
	)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: secnode [-addr host:port] [-id name] [-data dir] [-drain duration]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	logger := log.New(os.Stderr, *id+": ", log.LstdFlags)
	var node sec.StorageNode
	var disk *sec.DiskNode
	if *data != "" {
		var err error
		disk, err = sec.NewDiskNode(*id, *data)
		if err != nil {
			return err
		}
		logger.Printf("durable storage in %s (%d shards on disk)", *data, disk.Len())
		node = disk
	} else {
		node = sec.NewMemNode(*id)
	}
	server := sec.NewNodeServer(node)
	bound, err := server.Listen(*addr)
	if err != nil {
		return err
	}
	logger.Printf("serving shards on %s", bound)
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
	if disk != nil {
		if ferr := disk.Close(); err == nil {
			err = ferr
		} else if ferr != nil {
			logger.Printf("disk flush failed: %v", ferr)
		}
	}
	return err
}
