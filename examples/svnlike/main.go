// Svnlike: a miniature delta-based version-control workflow (the paper's
// SVN motivation) on top of SEC archives: commit revisions of a small
// project, inspect the log, and check out old revisions with reduced I/O.
//
// Run with: go run ./examples/svnlike
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"maps"
	"os"
	"slices"
	"strings"

	sec "github.com/secarchive/sec"
)

func main() {
	if err := run(context.Background(), os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, w io.Writer) error {
	repo, err := sec.NewRepository(sec.RepositoryConfig{
		Scheme:    sec.BasicSEC,
		Code:      sec.NonSystematicCauchy,
		N:         6,
		K:         3,
		BlockSize: 256,
	}, sec.NewMemCluster(6))
	if err != nil {
		return err
	}

	mainV1 := "package main\n\nfunc main() {\n\tprintln(\"hello\")\n}\n"
	readme := "A demo project stored with sparsity exploiting coding.\n"
	if _, err := repo.CommitContext(ctx, "initial import", map[string][]byte{
		"main.go": []byte(mainV1),
		"README":  []byte(readme),
	}); err != nil {
		return err
	}

	// A one-line change: the delta touches a single block.
	mainV2 := strings.Replace(mainV1, "hello", "hello, world", 1)
	if _, err := repo.CommitContext(ctx, "friendlier greeting", map[string][]byte{
		"main.go": []byte(mainV2),
	}); err != nil {
		return err
	}

	if _, err := repo.CommitContext(ctx, "add license", map[string][]byte{
		"LICENSE": []byte("MIT. Do what you like.\n"),
	}); err != nil {
		return err
	}

	fmt.Fprintln(w, "log:")
	for _, c := range repo.Log() {
		fmt.Fprintf(w, "  r%d  %-20s", c.Revision, c.Message)
		var changes []string
		for _, ch := range c.Changes {
			kind := "full"
			if ch.StoredDelta {
				kind = fmt.Sprintf("delta g=%d", ch.Gamma)
			}
			changes = append(changes, fmt.Sprintf("%s (%s)", ch.Path, kind))
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(changes, ", "))
	}

	fmt.Fprintln(w, "\ncheckout r1:")
	state, stats, err := repo.CheckoutContext(ctx, 1)
	if err != nil {
		return err
	}
	for _, path := range slices.Sorted(maps.Keys(state)) {
		fmt.Fprintf(w, "  %s (%d bytes)\n", path, len(state[path]))
	}
	fmt.Fprintf(w, "  -> %d node reads\n", stats.NodeReads)
	if string(state["main.go"]) != mainV1 {
		return fmt.Errorf("r1 main.go mismatch")
	}

	fmt.Fprintln(w, "\ncheckout head:")
	state, stats, err = repo.CheckoutContext(ctx, repo.Head())
	if err != nil {
		return err
	}
	if string(state["main.go"]) != mainV2 {
		return fmt.Errorf("head main.go mismatch")
	}
	fmt.Fprintf(w, "  %d files, %d node reads (%d sparse)\n", len(state), stats.NodeReads, stats.SparseReads)

	content, stats, err := repo.CheckoutFileContext(ctx, "main.go", 2)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmain.go@r2 retrieved with %d reads (%d sparse):\n%s", stats.NodeReads, stats.SparseReads, content)
	return nil
}
