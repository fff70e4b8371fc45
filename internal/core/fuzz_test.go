package core

import (
	"bytes"
	"strings"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// FuzzLoadManifest feeds arbitrary JSON to the manifest loader: it must
// never panic, and any manifest it accepts must survive a save/reopen
// round trip.
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
		var out bytes.Buffer
		if err := loaded.Save(&out); err != nil {
			t.Fatalf("accepted manifest does not save: %v", err)
		}
		if _, err := Load(&out, store.NewMemCluster(0)); err != nil {
			t.Fatalf("saved manifest does not reload: %v", err)
		}
	})
}
