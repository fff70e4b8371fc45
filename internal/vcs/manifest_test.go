package vcs

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	repo, cluster := testRepo(t)
	v1 := []byte("one")
	v2 := []byte("two")
	if _, err := repo.CommitContext(t.Context(), "first", map[string][]byte{"a": v1, "b": []byte("bee")}); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.CommitContext(t.Context(), "second", map[string][]byte{"a": v2}); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reopened, err := Load(&buf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Head() != 2 {
		t.Fatalf("Head = %d", reopened.Head())
	}
	log := reopened.Log()
	if len(log) != 2 || log[1].Message != "second" {
		t.Fatalf("Log = %+v", log)
	}
	got, _, err := reopened.CheckoutFileContext(t.Context(), "a", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) {
		t.Error("a@1 mismatch after reload")
	}
	state, _, err := reopened.CheckoutContext(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state["a"], v2) || string(state["b"]) != "bee" {
		t.Error("revision 2 state mismatch after reload")
	}

	// The reloaded repository keeps working: commit another revision.
	if _, err := reopened.CommitContext(t.Context(), "third", map[string][]byte{"b": []byte("buzz")}); err != nil {
		t.Fatal(err)
	}
	got, _, err = reopened.CheckoutFileContext(t.Context(), "b", 3)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "buzz" {
		t.Error("b@3 mismatch")
	}
}

func TestLoadValidation(t *testing.T) {
	repo, cluster := testRepo(t)
	for _, content := range []string{"x", "y"} {
		if _, err := repo.CommitContext(t.Context(), content, map[string][]byte{"f": []byte(content)}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()
	if _, err := Load(strings.NewReader(good), cluster); err != nil {
		t.Fatalf("unmutated manifest: %v", err)
	}

	tests := []struct {
		name string
		mut  func(string) string
	}{
		{"garbage", func(string) string { return "{" }},
		{"bad scheme", func(s string) string { return strings.Replace(s, "basic-sec", "bogus", 1) }},
		{"bad code", func(s string) string { return strings.Replace(s, "non-systematic-cauchy", "bogus", 1) }},
		{"no spec", func(s string) string { return strings.Replace(s, `"spec"`, `"spook"`, 1) }},
		{"bad revision", func(s string) string { return strings.Replace(s, `"revision": 1`, `"revision": 9`, 1) }},
		{"version zero", func(s string) string { return strings.Replace(s, `"version": 1`, `"version": 0`, 1) }},
		{"version going backwards", func(s string) string { return strings.Replace(s, `"version": 2`, `"version": 1`, 1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			mutated := tt.mut(good)
			if mutated == good {
				t.Fatal("mutation did not apply: the manifest format moved")
			}
			if _, err := Load(strings.NewReader(mutated), cluster); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

func TestSaveEmptyRepository(t *testing.T) {
	repo, cluster := testRepo(t)
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reopened, err := Load(&buf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.Head() != 0 || len(reopened.Files()) != 0 {
		t.Errorf("reopened empty repo: head=%d files=%v", reopened.Head(), reopened.Files())
	}
	if err := repo.Save(failingWriter{}); !errors.Is(err, errWriteFailed) {
		t.Errorf("Save to a failing writer: err = %v, want its error", err)
	}
}

var errWriteFailed = errors.New("write failed")

// failingWriter refuses every write.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errWriteFailed }

// TestLoadKeepsChainPolicy is the regression test for a reloaded
// repository forgetting its chain policy: the saved manifest carried the
// compression and cache knobs but not MaxChainLength or CheckpointEvery,
// so a file first tracked after a Load grew an
// unbounded chain. The whole spec is saved now: the same six edits bound
// their chain alike before and after the reload.
func TestLoadKeepsChainPolicy(t *testing.T) {
	cluster := store.NewMemCluster(6)
	repo, err := NewRepository(core.Config{
		Scheme:         core.BasicSEC,
		Code:           erasure.NonSystematicCauchy,
		N:              6,
		K:              3,
		BlockSize:      4,
		MaxChainLength: 2,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	before := sixEdits(t, repo, "before")
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reopened, err := Load(&buf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	after := sixEdits(t, reopened, "after")
	if slices.Max(before) > 2 || !slices.Equal(before, after) {
		t.Errorf("chain depths %v before the reload, %v for a file first tracked after it: want both within bound 2 and equal", before, after)
	}
}

// sixEdits commits six one-block edits of a 12-byte file at path and
// returns the chain depth of each of its versions.
func sixEdits(t *testing.T, repo *Repository, path string) []int {
	t.Helper()
	content := bytes.Repeat([]byte{3}, 12)
	for i := 0; i < 6; i++ {
		content = bytes.Clone(content)
		content[(i%3)*4] ^= 0x3C
		if _, err := repo.CommitContext(t.Context(), "edit", map[string][]byte{path: content}); err != nil {
			t.Fatal(err)
		}
	}
	return chainDepths(t, repo, path)
}

// savedByEarlierRelease is a repository manifest as Save wrote it before
// the settings became core.Spec: no "field" and no "placement" key, and a
// compaction limit that is no longer a setting.
const savedByEarlierRelease = `{
  "spec": {
    "scheme": "basic-sec",
    "code": "non-systematic-cauchy",
    "n": 6,
    "k": 3,
    "block_size": 4,
    "max_chain_length": 2,
    "checkpoint_every": 5,
    "compact_gamma_limit": 2,
    "read_cache_bytes": 1024
  },
  "commits": [
    {
      "revision": 1,
      "message": "init",
      "changes": [
        {
          "path": "doc.txt",
          "version": 1,
          "gamma": 0,
          "stored_delta": false
        }
      ]
    }
  ]
}
`

// TestLoadsRepositorySavedByEarlierRelease: the older saved form still
// loads with its chain policy - a file first tracked after the load keeps
// within its bound - and saves back unchanged but for the retired key.
func TestLoadsRepositorySavedByEarlierRelease(t *testing.T) {
	repo, err := Load(strings.NewReader(savedByEarlierRelease), store.NewMemCluster(6))
	if err != nil {
		t.Fatal(err)
	}
	if repo.Head() != 1 || repo.spec.MaxChainLength != 2 || repo.spec.CheckpointEvery != 5 || repo.spec.ReadCacheBytes != 1024 {
		t.Fatalf("loaded head %d with spec %+v", repo.Head(), repo.spec)
	}
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if want := strings.Replace(savedByEarlierRelease, "    \"compact_gamma_limit\": 2,\n", "", 1); buf.String() != want {
		t.Errorf("re-saved as\n%s\nwant\n%s", buf.String(), want)
	}
	if depths := sixEdits(t, repo, "new.txt"); slices.Max(depths) > 2 {
		t.Errorf("a file tracked after the load has chain depths %v, want within the saved bound 2", depths)
	}
}

// TestRepositoryKeepsEverySpecField creates a repository that sets every
// Spec field and saves and reloads it: the reloaded repository holds the
// same spec, and a file first tracked after the reload gets an archive with
// it.
func TestRepositoryKeepsEverySpecField(t *testing.T) {
	cfg := core.Config{
		Scheme:          core.ReversedSEC,
		Code:            erasure.NonSystematicCauchy,
		N:               6,
		K:               3,
		BlockSize:       4,
		Placement:       store.DispersedPlacement{N: 6},
		MaxChainLength:  2,
		CheckpointEvery: 3,
		CompressDeltas:  true,
		ReadCacheBytes:  1024,
	}
	want := cfg.Spec()
	for i := range reflect.TypeOf(want).NumField() {
		if reflect.ValueOf(want).Field(i).IsZero() {
			t.Errorf("the test config leaves Spec.%s unset", reflect.TypeOf(want).Field(i).Name)
		}
	}
	cluster := store.NewMemCluster(0)
	repo, err := NewRepository(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reopened, err := Load(&buf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if reopened.spec != want {
		t.Errorf("reloaded spec %+v, want %+v", reopened.spec, want)
	}
	if _, err := reopened.CommitContext(t.Context(), "add", map[string][]byte{"f": []byte("content")}); err != nil {
		t.Fatal(err)
	}
	info, err := reopened.client.Info(t.Context(), archiveName("f"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Manifest.Spec != want {
		t.Errorf("file archive created after the reload has spec %+v, want %+v", info.Manifest.Spec, want)
	}
}

// TestReloadAfterCompactionReadsEveryRevision saves a repository, compacts
// it through one reload and opens it a second time from the same saved
// bytes: the save holds no per-file manifest that the compaction could
// have made stale, so every revision still reads back byte-identical and
// the second reload sees the compacted chain.
func TestReloadAfterCompactionReadsEveryRevision(t *testing.T) {
	repo, cluster := testRepo(t)
	hot := bytes.Repeat([]byte{1}, 3*64)
	var want []map[string][]byte
	for r := 1; r <= 8; r++ {
		hot = bytes.Clone(hot)
		hot[(r%3)*64] ^= 0xA5
		changes := map[string][]byte{"hot": hot}
		if r == 1 {
			changes["cold"] = []byte("written once")
		}
		if _, err := repo.CommitContext(t.Context(), fmt.Sprintf("r%d", r), changes); err != nil {
			t.Fatal(err)
		}
		want = append(want, map[string][]byte{"hot": hot, "cold": []byte("written once")})
	}
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	saved := buf.Bytes()

	compactor, err := Load(bytes.NewReader(saved), cluster)
	if err != nil {
		t.Fatal(err)
	}
	changed, err := compactor.CompactContext(t.Context(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if report, ok := changed["hot"]; !ok || report.Deleted == 0 {
		t.Fatalf("compaction reports %+v: want hot rewritten and its superseded shards reclaimed", changed)
	}
	reopened, err := Load(bytes.NewReader(saved), cluster)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*Repository{"compacting": compactor, "reopened": reopened} {
		for rev := 1; rev <= 8; rev++ {
			state, _, err := r.CheckoutContext(t.Context(), rev)
			if err != nil {
				t.Fatalf("%s repository, r%d: %v", name, rev, err)
			}
			for path, content := range want[rev-1] {
				if !bytes.Equal(state[path], content) {
					t.Errorf("%s repository: %s@%d differs after compaction", name, path, rev)
				}
			}
		}
	}
	if got := chainDepths(t, reopened, "hot"); slices.Max(got) > 3 {
		t.Errorf("reopened repository sees chain depths %v, want the compacted chain (bound 3)", got)
	}
}
