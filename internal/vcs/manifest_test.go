package vcs

import (
	"bytes"
	"strings"
	"testing"
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
	if _, err := repo.CommitContext(t.Context(), "a", map[string][]byte{"f": []byte("x")}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := repo.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.String()

	tests := []struct {
		name string
		mut  func(string) string
	}{
		{"garbage", func(string) string { return "{" }},
		{"bad scheme", func(s string) string { return strings.Replace(s, "basic-sec", "bogus", 1) }},
		{"bad code", func(s string) string { return strings.Replace(s, "non-systematic-cauchy", "bogus", 2) }},
		{"bad revision", func(s string) string { return strings.Replace(s, `"revision": 1`, `"revision": 9`, 1) }},
		{"bad version map", func(s string) string { return strings.Replace(s, `"version_at": [`, `"version_at": [7,`, 1) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(tt.mut(good)), cluster); err == nil {
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
}
