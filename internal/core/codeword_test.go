package core

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"strings"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

func mustStored(t *testing.T, a *Archive, v int) []codeword {
	t.Helper()
	cws, err := a.stored(v)
	if err != nil {
		t.Fatal(err)
	}
	return cws
}

// rowsListed sums, over every codeword the chain lists, the rows it is
// stored as: the rows the nodes should hold, no more and no fewer.
func rowsListed(t *testing.T, a *Archive) int {
	t.Helper()
	rows := 0
	for v := 1; v <= len(a.entries); v++ {
		for _, cw := range mustStored(t, a, v) {
			rows += cw.code.N()
		}
	}
	return rows
}

// TestNodesHoldWhatTheChainLists is the conservation law of the stored
// codewords, for every kind through every site that writes, moves, rebuilds
// or re-reads one: after a chain is committed, compacted and reclaimed,
// repaired onto an emptied node, reopened from its manifest and committed to
// again, every version reads back byte-identical, a whole-archive read costs
// what the planner prices, a scrub finds nothing, and the nodes hold exactly
// the rows the chain lists - a codeword written with one code and listed,
// deleted or rebuilt with another leaves rows behind or rows missing.
func TestNodesHoldWhatTheChainLists(t *testing.T) {
	variants := []struct {
		name string
		mut  func(*Config)
	}{
		{"plain", func(*Config) {}},
		{"cdec", func(c *Config) { c.CompressDeltas = true }},
		{"gf16-cdec", func(c *Config) { c.Field, c.CompressDeltas = GF16, true }},
		{"checkpoint-cdec", func(c *Config) { c.CheckpointEvery, c.CompressDeltas = 4, true }},
	}
	gammas := []int{1, 2, 0, 3, 5, 1, 2, 3, 0, 5, 1, 2, 3, 1, 2} // twelve edits, then three more
	for _, scheme := range []Scheme{BasicSEC, OptimizedSEC, ReversedSEC} {
		for _, variant := range variants {
			t.Run(fmt.Sprintf("%v/%s", scheme, variant.name), func(t *testing.T) {
				cfg := Config{Name: "t", Scheme: scheme, Code: erasure.NonSystematicCauchy, N: 10, K: 5, BlockSize: 4}
				variant.mut(&cfg)
				cluster := store.NewMemCluster(0)
				a, err := New(cfg, cluster)
				if err != nil {
					t.Fatal(err)
				}
				versions := [][]byte{bytes.Repeat([]byte{7}, a.Capacity())}
				mustCommit(t, a, versions[0])
				edit := func(i int) {
					blocks := make([]int, gammas[i])
					for b := range blocks {
						blocks[b] = (i + b) % cfg.K
					}
					versions = append(versions, editBlocks(versions[len(versions)-1], cfg.BlockSize, blocks...))
					mustCommit(t, a, versions[len(versions)-1])
				}
				check := func(when string) {
					t.Helper()
					// What the operation superseded is freed first, as the
					// owner's publish does.
					if _, orphans, err := a.ReclaimSupersededContext(t.Context()); err != nil || orphans != 0 {
						t.Fatalf("%s: reclaim: %d orphans, %v", when, orphans, err)
					}
					L := len(versions)
					for v, want := range versions {
						if got, _ := mustRetrieve(t, a, v+1); !bytes.Equal(got, want) {
							t.Errorf("%s: version %d differs", when, v+1)
						}
					}
					planned, err := a.PlannedReadsAll(L)
					if err != nil {
						t.Fatalf("%s: %v", when, err)
					}
					all, stats, err := a.RetrieveAllContext(t.Context(), L)
					if err != nil {
						t.Fatalf("%s: %v", when, err)
					}
					for v, want := range versions {
						if !bytes.Equal(all[v], want) {
							t.Errorf("%s: RetrieveAllContext version %d differs", when, v+1)
						}
					}
					if planned != stats.NodeReads {
						t.Errorf("%s: PlannedReadsAll = %d, RetrieveAllContext read %d", when, planned, stats.NodeReads)
					}
					report, err := a.ScrubContext(t.Context(), false)
					if err != nil {
						t.Fatalf("%s: %v", when, err)
					}
					if report.ShardsMissing+report.ShardsCorrupt+report.ShardsUnreachable+report.ObjectsUndecodable != 0 {
						t.Errorf("%s: scrub = %+v", when, report)
					}
					held := 0
					for i := 0; i < cluster.Size(); i++ {
						node, err := cluster.Node(i)
						if err != nil {
							t.Fatal(err)
						}
						held += node.(*store.MemNode).Len()
					}
					if listed := rowsListed(t, a); held != listed || report.ShardsChecked != listed {
						t.Errorf("%s: nodes hold %d rows, scrub checked %d, the chain lists %d", when, held, report.ShardsChecked, listed)
					}
				}

				for i := 0; i < 12; i++ {
					edit(i)
				}
				check("after commit")

				if _, err := a.CompactToContext(t.Context(), 2); err != nil {
					t.Fatal(err)
				}
				check("after compaction")

				node, err := cluster.Node(1)
				if err != nil {
					t.Fatal(err)
				}
				node.(*store.MemNode).Wipe()
				if _, err := a.RepairNodeContext(t.Context(), 1); err != nil {
					t.Fatal(err)
				}
				check("after repair")

				if a, err = Open(a.Manifest(), cluster); err != nil {
					t.Fatal(err)
				}
				check("after reopen")

				for i := 12; i < len(gammas); i++ {
					edit(i)
				}
				check("after more commits")
			})
		}
	}
}

// TestKindVocabularyConfined keeps the codeword kinds in codeword.go: no other
// non-test file of the package may name the flags, codes and prices that tell
// a full codeword from a plain delta from a CDEC-compacted one. A site that
// needs to know asks the codeword (see the head of codeword.go).
func TestKindVocabularyConfined(t *testing.T) {
	vocabulary := map[string]bool{
		"compressed": true, "support": true, "compressedCode": true, "entryDeltaCode": true,
		"sparseGamma": true, "compressEligible": true, "plannedDeltaReads": true,
		"plannedEntryReads": true, "CompressedReadCost": true, "ReadCost": true, "MaxSparseGamma": true,
	}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go") && fi.Name() != "codeword.go"
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && vocabulary[id.Name] {
					t.Errorf("%s names %q: the kind of a codeword is codeword.go's to know", name, id.Name)
				}
				return true
			})
		}
	}
}
