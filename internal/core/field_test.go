package core

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/secarchive/sec/internal/store"
)

// TestOpenRefusesOtherFields: every archive codes over GF(2^8), and a
// manifest naming another coding field - GF(2^16), which an earlier release
// wrote, or one never written - is refused by name on each path that opens
// one: Load from a saved manifest, and OpenContext from a snapshot
// replicated to n-k+1 nodes. Its rows are never decoded as GF(2^8) ones.
func TestOpenRefusesOtherFields(t *testing.T) {
	for _, field := range []string{"gf16", "gf32"} {
		t.Run(field, func(t *testing.T) {
			openRefuses(t, Spec{Scheme: "basic-sec", Code: "non-systematic-cauchy", Field: field, N: 6, K: 3, BlockSize: 4}, field)
		})
	}
}

// TestOpenRefusesRetiredCodes: every archive codes with one of the two
// Cauchy generators, and a manifest naming a Vandermonde code, which an
// earlier release offered, is refused on each path that opens one with an
// error naming it and the two codes. Its rows are never decoded with a
// Cauchy generator.
func TestOpenRefusesRetiredCodes(t *testing.T) {
	for _, code := range []string{"non-systematic-vandermonde", "systematic-vandermonde"} {
		t.Run(code, func(t *testing.T) {
			openRefuses(t, Spec{Scheme: "basic-sec", Code: code, Field: "gf8", N: 6, K: 3, BlockSize: 4}, code, "non-systematic-cauchy", "systematic-cauchy")
		})
	}
}

// openRefuses saves a manifest of the spec holding one full version, and
// holds Load of it, and OpenContext of it replicated to n-k+1 nodes, to
// refusing it with an error that quotes each of names.
func openRefuses(t *testing.T, spec Spec, names ...string) {
	t.Helper()
	m := spec.Manifest("t")
	m.Generation = 1
	m.Entries = []ManifestEntry{{Version: 1, Full: true, Length: 12}}
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(path string, err error) {
		t.Helper()
		for _, name := range names {
			if err == nil || !strings.Contains(err.Error(), `"`+name+`"`) {
				t.Errorf("%s: err = %v, want an error naming %q", path, err, name)
			}
		}
	}

	cluster := store.NewMemCluster(spec.N)
	_, err = Load(bytes.NewReader(raw), cluster)
	refused("Load", err)

	for _, node := range replicaRing(manifestID("t"), cluster.Size())[:spec.N-spec.K+1] {
		if err := cluster.Put(t.Context(), node, store.ShardID{Object: manifestID("t")}, raw); err != nil {
			t.Fatal(err)
		}
	}
	_, err = OpenContext(t.Context(), "t", cluster, nil)
	refused("OpenContext", err)
}
