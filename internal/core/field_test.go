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
			m := Spec{Scheme: "basic-sec", Code: "non-systematic-cauchy", Field: field, N: 6, K: 3, BlockSize: 4}.Manifest("t")
			m.Generation = 1
			m.Entries = []ManifestEntry{{Version: 1, Full: true, Length: 12}}
			raw, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			refused := func(path string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), `"`+field+`"`) {
					t.Errorf("%s: err = %v, want an error naming %q", path, err, field)
				}
			}

			cluster := store.NewMemCluster(6)
			_, err = Load(bytes.NewReader(raw), cluster)
			refused("Load", err)

			for _, node := range replicaRing(manifestID("t"), cluster.Size())[:6-3+1] {
				if err := cluster.Put(t.Context(), node, store.ShardID{Object: manifestID("t")}, raw); err != nil {
					t.Fatal(err)
				}
			}
			_, err = OpenContext(t.Context(), "t", cluster, nil)
			refused("OpenContext", err)
		})
	}
}
