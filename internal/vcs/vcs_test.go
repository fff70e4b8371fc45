package vcs

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

func testRepo(t *testing.T) (*Repository, *store.Cluster) {
	t.Helper()
	cluster := store.NewMemCluster(0)
	repo, err := NewRepository(core.Config{
		Scheme:    core.BasicSEC,
		Code:      erasure.NonSystematicCauchy,
		N:         6,
		K:         3,
		BlockSize: 64,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	return repo, cluster
}

func TestNewRepositoryValidation(t *testing.T) {
	if _, err := NewRepository(core.Config{}, store.NewMemCluster(0)); err == nil {
		t.Error("zero config: want error")
	}
	valid := core.Config{Scheme: core.BasicSEC, Code: erasure.NonSystematicCauchy, N: 6, K: 3, BlockSize: 8}
	if _, err := NewRepository(valid, nil); err == nil {
		t.Error("nil cluster: want error")
	}
	named := valid
	named.Name = "files"
	if _, err := NewRepository(named, store.NewMemCluster(0)); err == nil {
		t.Errorf("config %+v, which no saved spec carries: want error", named)
	}
}

func TestCommitCheckoutAcrossRevisions(t *testing.T) {
	repo, _ := testRepo(t)
	readme1 := []byte("hello world")
	main1 := []byte("package main")
	c1, err := repo.CommitContext(t.Context(), "init", map[string][]byte{"README": readme1, "main.go": main1})
	if err != nil {
		t.Fatal(err)
	}
	if c1.Revision != 1 || len(c1.Changes) != 2 {
		t.Fatalf("commit 1 = %+v", c1)
	}

	readme2 := []byte("hello there")
	c2, err := repo.CommitContext(t.Context(), "tweak readme", map[string][]byte{"README": readme2})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Revision != 2 || len(c2.Changes) != 1 || !c2.Changes[0].StoredDelta {
		t.Fatalf("commit 2 = %+v", c2)
	}

	lib1 := []byte("package lib")
	if _, err := repo.CommitContext(t.Context(), "add lib", map[string][]byte{"lib.go": lib1}); err != nil {
		t.Fatal(err)
	}

	// Revision 1: original README, main.go, no lib.go.
	state, _, err := repo.CheckoutContext(t.Context(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state["README"], readme1) || !bytes.Equal(state["main.go"], main1) {
		t.Error("revision 1 state mismatch")
	}
	if _, ok := state["lib.go"]; ok {
		t.Error("lib.go present at revision 1")
	}

	// Revision 2: updated README, main.go carried over.
	state, _, err = repo.CheckoutContext(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(state["README"], readme2) || !bytes.Equal(state["main.go"], main1) {
		t.Error("revision 2 state mismatch")
	}

	// Revision 3: everything.
	state, _, err = repo.CheckoutContext(t.Context(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != 3 || !bytes.Equal(state["lib.go"], lib1) {
		t.Error("revision 3 state mismatch")
	}

	if repo.Head() != 3 {
		t.Errorf("Head = %d, want 3", repo.Head())
	}
	if got := repo.Files(); len(got) != 3 || got[0] != "README" {
		t.Errorf("Files = %v", got)
	}
}

func TestCheckoutFile(t *testing.T) {
	repo, _ := testRepo(t)
	v1 := []byte("v1 content")
	v2 := []byte("v2 content")
	if _, err := repo.CommitContext(t.Context(), "a", map[string][]byte{"f": v1}); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.CommitContext(t.Context(), "b", map[string][]byte{"f": v2}); err != nil {
		t.Fatal(err)
	}
	got, _, err := repo.CheckoutFileContext(t.Context(), "f", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) {
		t.Error("f@1 mismatch")
	}
	got, stats, err := repo.CheckoutFileContext(t.Context(), "f", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Error("f@2 mismatch")
	}
	if stats.NodeReads == 0 {
		t.Error("no reads accounted")
	}
}

func TestSmallEditsUseSparseReads(t *testing.T) {
	repo, _ := testRepo(t)
	content := bytes.Repeat([]byte{'x'}, 3*64) // full capacity
	if _, err := repo.CommitContext(t.Context(), "base", map[string][]byte{"doc": content}); err != nil {
		t.Fatal(err)
	}
	edited := append([]byte(nil), content...)
	edited[0] = 'y' // single-block edit
	if _, err := repo.CommitContext(t.Context(), "edit", map[string][]byte{"doc": edited}); err != nil {
		t.Fatal(err)
	}
	_, stats, err := repo.CheckoutFileContext(t.Context(), "doc", 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SparseReads != 1 {
		t.Errorf("sparse reads = %d, want 1", stats.SparseReads)
	}
	if stats.NodeReads != 3+2 {
		t.Errorf("node reads = %d, want 5", stats.NodeReads)
	}
}

func TestCommitErrors(t *testing.T) {
	repo, _ := testRepo(t)
	if _, err := repo.CommitContext(t.Context(), "empty", nil); err == nil {
		t.Error("empty commit: want error")
	}
	if _, err := repo.CommitContext(t.Context(), "big", map[string][]byte{"f": make([]byte, 3*64+1)}); err == nil {
		t.Error("over-capacity file: want error")
	}
	if repo.Head() != 0 {
		t.Errorf("failed commits advanced head to %d", repo.Head())
	}
}

func TestCheckoutErrors(t *testing.T) {
	repo, _ := testRepo(t)
	if _, _, err := repo.CheckoutContext(t.Context(), 1); !errors.Is(err, ErrNoSuchRevision) {
		t.Errorf("err = %v, want ErrNoSuchRevision", err)
	}
	if _, err := repo.CommitContext(t.Context(), "a", map[string][]byte{"f": []byte("x")}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := repo.CheckoutFileContext(t.Context(), "g", 1); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("err = %v, want ErrNoSuchFile", err)
	}
	if _, _, err := repo.CheckoutFileContext(t.Context(), "f", 2); !errors.Is(err, ErrNoSuchRevision) {
		t.Errorf("err = %v, want ErrNoSuchRevision", err)
	}
	if _, err := repo.CommitContext(t.Context(), "b", map[string][]byte{"g": []byte("y")}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := repo.CheckoutFileContext(t.Context(), "g", 1); !errors.Is(err, ErrNoSuchFile) {
		t.Errorf("g@1: err = %v, want ErrNoSuchFile (added at r2)", err)
	}
}

func TestZeroDeltaRecommit(t *testing.T) {
	repo, _ := testRepo(t)
	content := []byte("same")
	if _, err := repo.CommitContext(t.Context(), "a", map[string][]byte{"f": content}); err != nil {
		t.Fatal(err)
	}
	c2, err := repo.CommitContext(t.Context(), "b", map[string][]byte{"f": content})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Changes[0].Gamma != 0 {
		t.Errorf("gamma = %d, want 0", c2.Changes[0].Gamma)
	}
	got, stats, err := repo.CheckoutFileContext(t.Context(), "f", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, content) {
		t.Error("content mismatch")
	}
	if stats.NodeReads != 3 {
		t.Errorf("reads = %d, want 3 (zero delta free)", stats.NodeReads)
	}
}

func TestLogIsACopy(t *testing.T) {
	repo, _ := testRepo(t)
	if _, err := repo.CommitContext(t.Context(), "a", map[string][]byte{"f": []byte("x")}); err != nil {
		t.Fatal(err)
	}
	log := repo.Log()
	if len(log) != 1 || log[0].Message != "a" {
		t.Fatalf("Log = %+v", log)
	}
	log[0].Message = "mutated"
	if repo.Log()[0].Message != "a" {
		t.Error("Log aliases internal state")
	}
}

// TestPathsMapToGatewayArchives commits paths the gateway would refuse as
// archive names (separators, a leading dot) next to paths that only differ
// in how they escape: each gets an archive of its own, holding one version.
func TestPathsMapToGatewayArchives(t *testing.T) {
	repo, _ := testRepo(t)
	paths := []string{"src/main.go", ".hidden", `a\b`, "a/b", "a%2Fb", "100%", "ünï/cødé"}
	contents := make(map[string][]byte, len(paths))
	for _, p := range paths {
		contents[p] = []byte("content of " + p)
	}
	if _, err := repo.CommitContext(t.Context(), "odd paths", contents); err != nil {
		t.Fatal(err)
	}
	state, _, err := repo.CheckoutContext(t.Context(), 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if !bytes.Equal(state[p], contents[p]) {
			t.Errorf("%q@1 = %q, want %q", p, state[p], contents[p])
		}
		info, err := repo.client.Info(t.Context(), archiveName(p))
		if err != nil {
			t.Fatalf("archive of %q: %v", p, err)
		}
		if info.Versions != 1 {
			t.Errorf("archive of %q holds %d versions, want 1", p, info.Versions)
		}
	}
	if _, err := repo.client.Info(t.Context(), archiveName("nope")); !errors.Is(err, store.ErrNotFound) {
		t.Errorf("untracked path's archive: err = %v, want ErrNotFound", err)
	}
}

func TestRepositoryWithReversedScheme(t *testing.T) {
	cluster := store.NewMemCluster(0)
	repo, err := NewRepository(core.Config{
		Scheme:    core.ReversedSEC,
		Code:      erasure.SystematicCauchy,
		N:         6,
		K:         3,
		BlockSize: 16,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	base := bytes.Repeat([]byte{'a'}, 48)
	edit1 := append([]byte(nil), base...)
	edit1[0] = 'b'
	edit2 := append([]byte(nil), edit1...)
	edit2[47] = 'c'
	for i, c := range [][]byte{base, edit1, edit2} {
		if _, err := repo.CommitContext(t.Context(), "r", map[string][]byte{"doc": c}); err != nil {
			t.Fatalf("commit %d: %v", i+1, err)
		}
	}
	// Latest is cheap under Reversed SEC.
	_, stats, err := repo.CheckoutFileContext(t.Context(), "doc", 3)
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodeReads != 3 {
		t.Errorf("latest reads = %d, want 3", stats.NodeReads)
	}
	got, _, err := repo.CheckoutFileContext(t.Context(), "doc", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, base) {
		t.Error("doc@1 mismatch")
	}
}

func TestFailedCommitLeavesNoPhantomPaths(t *testing.T) {
	repo, _ := testRepo(t)
	good := bytes.Repeat([]byte{'g'}, 48)
	oversized := bytes.Repeat([]byte{'z'}, 64*3+1) // exceeds K*BlockSize capacity

	// "a" sorts before "z-too-big", so its archive commit succeeds before
	// the oversized file fails the batch: both paths were new, so both
	// must be untracked again and no revision recorded.
	if _, err := repo.CommitContext(t.Context(), "r1", map[string][]byte{"a": good, "z-too-big": oversized}); err == nil {
		t.Fatal("oversized file: want commit error")
	}
	if head := repo.Head(); head != 0 {
		t.Errorf("Head = %d after failed commit, want 0", head)
	}
	if files := repo.Files(); len(files) != 0 {
		t.Errorf("Files = %v after failed commit, want none (phantom paths)", files)
	}

	// A pre-cancelled context aborts before any file and tracks nothing.
	ctx, cancel := context.WithCancel(t.Context())
	cancel()
	if _, err := repo.CommitContext(ctx, "r1", map[string][]byte{"a": good}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled commit = %v, want context.Canceled", err)
	}
	if files := repo.Files(); len(files) != 0 {
		t.Errorf("Files = %v after cancelled commit, want none", files)
	}

	// The retried commit starts clean.
	if _, err := repo.CommitContext(t.Context(), "r1", map[string][]byte{"a": good}); err != nil {
		t.Fatalf("retry after failed commit: %v", err)
	}
	content, _, err := repo.CheckoutFileContext(t.Context(), "a", 1)
	if err != nil || !bytes.Equal(content, good) {
		t.Errorf("a@1 = %q/%v after retry", content, err)
	}
	// Already-tracked paths survive a later failed commit untouched.
	if _, err := repo.CommitContext(t.Context(), "r2", map[string][]byte{"a": good, "b": oversized}); err == nil {
		t.Fatal("want commit error")
	}
	if files := repo.Files(); len(files) != 1 || files[0] != "a" {
		t.Errorf("Files = %v, want [a]", files)
	}
}

// TestFailedMidBatchCommitLeavesHistoryUnchanged fails a commit after its
// first file was stored: the log did not grow, so Head, Files and every
// earlier checkout are untouched, while the stored file's archive holds a
// version no revision names. The retry appends after it.
func TestFailedMidBatchCommitLeavesHistoryUnchanged(t *testing.T) {
	repo, _ := testRepo(t)
	a1, a2, a3 := []byte("a one"), []byte("a two"), []byte("a three")
	b1 := []byte("b one")
	if _, err := repo.CommitContext(t.Context(), "r1", map[string][]byte{"a": a1, "b": b1}); err != nil {
		t.Fatal(err)
	}
	if _, err := repo.CommitContext(t.Context(), "r2", map[string][]byte{"a": a2}); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if head := repo.Head(); head != 2 {
			t.Errorf("%s: Head = %d, want 2", when, head)
		}
		if files := repo.Files(); len(files) != 2 || files[0] != "a" || files[1] != "b" {
			t.Errorf("%s: Files = %v, want [a b]", when, files)
		}
		for rev, want := range map[int][]byte{1: a1, 2: a2} {
			state, _, err := repo.CheckoutContext(t.Context(), rev)
			if err != nil {
				t.Fatalf("%s: checkout r%d: %v", when, rev, err)
			}
			if len(state) != 2 || !bytes.Equal(state["a"], want) || !bytes.Equal(state["b"], b1) {
				t.Errorf("%s: r%d = %q", when, rev, state)
			}
		}
	}
	check("before")
	// "a" sorts first and is stored; "z" exceeds the capacity and fails
	// the batch.
	oversized := bytes.Repeat([]byte{'z'}, 64*3+1)
	if _, err := repo.CommitContext(t.Context(), "r3", map[string][]byte{"a": a3, "z": oversized}); err == nil {
		t.Fatal("oversized file: want commit error")
	}
	check("after the failed commit")
	info, err := repo.client.Info(t.Context(), archiveName("a"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Versions != 3 {
		t.Errorf("a's archive holds %d versions, want 3 (two referenced, one left by the failed commit)", info.Versions)
	}
	c3, err := repo.CommitContext(t.Context(), "r3", map[string][]byte{"a": a3})
	if err != nil {
		t.Fatal(err)
	}
	if c3.Revision != 3 || c3.Changes[0].Version != 4 {
		t.Errorf("retry = %+v, want revision 3 naming a's version 4", c3)
	}
	if got, _, err := repo.CheckoutFileContext(t.Context(), "a", 3); err != nil || !bytes.Equal(got, a3) {
		t.Errorf("a@3 = %q/%v after the retry", got, err)
	}
	if got, _, err := repo.CheckoutFileContext(t.Context(), "a", 2); err != nil || !bytes.Equal(got, a2) {
		t.Errorf("a@2 = %q/%v after the retry", got, err)
	}
}
