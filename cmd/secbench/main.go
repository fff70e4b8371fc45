// Command secbench regenerates the tables and figures of the SEC paper's
// evaluation (Table I, Figs. 2-9, the Section V-A failure-pattern census)
// plus the extension experiments: the puncturing trade-off, the Reversed
// SEC access profile, the system-measured Fig. 4, the L-sweep
// generalization of Fig. 7, and the failure/repair simulation.
//
// Usage:
//
//	secbench -list
//	secbench -run fig2
//	secbench -run all -format csv
//	secbench -faults 7 -benchout drill
//
// Output goes to stdout; every experiment uses the paper's default
// parameters and fixed seeds, so runs are reproducible.
//
// The -faults <seed> mode is the fault drill: it slows one node by ~10x
// and measures retrieval tail latency on a clean cluster and around the
// slow node, writing BENCH_faults.json (p50/p99) into -benchout.
//
// Performance numbers are not this command's job: `bash benchmark/run.sh`
// (benchmark/README.md) is the one performance harness.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"github.com/secarchive/sec/internal/experiments"
)

func main() {
	// SIGINT/SIGTERM cancel the run context: in-flight retrievals abort
	// promptly via their contexts and the loopback servers drain instead of
	// dying mid-write.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "secbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("secbench", flag.ContinueOnError)
	var (
		runID    = fs.String("run", "all", "experiment to run (see -list), or 'all'")
		format   = fs.String("format", "table", "output format: table or csv")
		list     = fs.Bool("list", false, "list experiment IDs and exit")
		benchout = fs.String("benchout", ".", "directory for the fault drill's BENCH_faults.json")
		faultRun = fs.Int64("faults", 0, "fault drill seed: retrieval latency clean vs with one slow node; writes BENCH_faults.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Fprintln(out, strings.Join(experiments.IDs(), "\n"))
		return nil
	}
	if *faultRun != 0 {
		return runFaultBench(ctx, *faultRun, *benchout, out)
	}
	if *format != "table" && *format != "csv" {
		return fmt.Errorf("unknown format %q (want table or csv)", *format)
	}
	ids := experiments.IDs()
	if *runID != "all" {
		ids = []string{*runID}
	}
	for i, id := range ids {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("aborted before %s: %w", id, err)
		}
		table, err := experiments.Run(ctx, id)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := fmt.Fprintln(out); err != nil {
				return err
			}
		}
		if *format == "csv" {
			if _, err := fmt.Fprintf(out, "# %s: %s\n", table.ID, table.Title); err != nil {
				return err
			}
			if err := table.WriteCSV(out); err != nil {
				return err
			}
			continue
		}
		if err := table.Format(out); err != nil {
			return err
		}
	}
	return nil
}
