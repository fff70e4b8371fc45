package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// FuzzLoadManifest feeds arbitrary JSON to the manifest loader: it must
// never panic, and what Save writes of any manifest it accepts must load
// and save again to the same bytes. The committed corpus holds manifests
// an earlier release saved: one per scheme, CDEC entries with a support
// under a compress threshold, GF16, dispersed, punctured, a full chain
// policy with a compaction limit (the three settings since retired, whose
// keys load ignored), compacted bases, one
// from before the generation existed and one of 256-byte blocks from
// before windows existed. It also holds plain and CDEC deltas stored at
// one window each, and the three windows Open refuses: one on an entry
// without a delta, one past the block size and one of zero width. It holds
// a compacted chain whose entries carry their digests, and the same
// manifest with every digest stripped, as a build from before digests
// writes it back, and a digest that is not eight hex digits, which Open
// refuses. And it holds plain deltas that record their support, each block
// at its own window (per-block-windows), and the three forms of them Open
// refuses: offsets without a support, a support whose length is not gamma,
// and an offset whose window leaves the block.
func FuzzLoadManifest(f *testing.F) {
	// Seed with a real manifest.
	cluster := store.NewMemCluster(0)
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := a.CommitContext(f.Context(), []byte("seed")); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{}`)
	f.Add(`{"scheme":"basic-sec","code":"non-systematic-cauchy","n":6,"k":3,"block_size":4}`)
	f.Add(`not json at all`)
	f.Add(`{"n":-1}`)

	f.Fuzz(func(t *testing.T, input string) {
		loaded, err := Load(strings.NewReader(input), store.NewMemCluster(0))
		if err != nil {
			return
		}
		saved := resave(t, loaded)
		reloaded, err := Load(bytes.NewReader(saved), store.NewMemCluster(0))
		if err != nil {
			t.Fatalf("saved manifest does not reload: %v", err)
		}
		if again := resave(t, reloaded); !bytes.Equal(again, saved) {
			t.Fatalf("Save(Load(x)) is no fixed point:\n%s\nsaves as\n%s", saved, again)
		}
	})
}

func resave(t *testing.T, a *Archive) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := a.Save(&out); err != nil {
		t.Fatalf("accepted manifest does not save: %v", err)
	}
	return out.Bytes()
}

// TestSavedManifestsResaveByteIdentical: every manifest in the committed
// FuzzLoadManifest corpus but the refused-* ones was saved by a release,
// and each loads and saves back to exactly its bytes - the manifest format
// has not moved, and a chain of whole-block deltas saves with no window -
// but for the line of a retired setting, which it saves without. A
// refused-* one does not load.
func TestSavedManifestsResaveByteIdentical(t *testing.T) {
	retired := map[string]string{
		"punctured":    "  \"puncture_deltas\": 1,\n",
		"chain-policy": "  \"compact_gamma_limit\": 2,\n",
		"cdec-support": "  \"compress_gamma_max\": 1,\n",
	}
	files, err := filepath.Glob("testdata/fuzz/FuzzLoadManifest/*")
	if err != nil || len(files) < 23 {
		t.Fatalf("corpus has %d files (err %v), want the 23 committed", len(files), err)
	}
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			raw, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			// The corpus encoding: a header line, then string("...").
			_, value, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
			saved, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(value, "string("), ")"))
			if err != nil {
				t.Fatalf("corpus file: %v", err)
			}
			a, err := Load(strings.NewReader(saved), store.NewMemCluster(0))
			if refused := strings.HasPrefix(filepath.Base(file), "refused-"); refused || err != nil {
				if !refused || err == nil {
					t.Fatalf("Load err = %v, refused-* file %v", err, refused)
				}
				return
			}
			want := saved
			if line, ok := retired[filepath.Base(file)]; ok {
				if want = strings.Replace(saved, line, "", 1); want == saved {
					t.Fatalf("no retired line %q", line)
				}
			}
			if got := resave(t, a); string(got) != want {
				t.Errorf("re-saved as\n%s\nwant\n%s", got, want)
			}
		})
	}
}
