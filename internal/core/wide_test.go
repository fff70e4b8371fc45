package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// wideConfig is the widest non-systematic Cauchy archive GF(2^8) holds with
// k = 100: n+k = 256, every point of the field.
func wideConfig() Config {
	return Config{
		Name:      "wide",
		Scheme:    BasicSEC,
		Code:      erasure.NonSystematicCauchy,
		N:         156,
		K:         100,
		BlockSize: 4,
	}
}

// TestWideFieldValidation: an archive is created up to the edge of the
// field, whatever its construction and block size, and refused one row past
// it, naming the bound.
func TestWideFieldValidation(t *testing.T) {
	cluster := store.NewMemCluster(0)
	tests := []struct {
		name string
		mut  func(*Config)
		want string // in the error; "" when the archive is created
	}{
		{"n+k = 256", func(*Config) {}, ""},
		{"odd block size", func(c *Config) { c.BlockSize = 3 }, ""},
		{"systematic, n = 256", func(c *Config) { c.Code, c.N = erasure.SystematicCauchy, 256 }, ""},
		{"n+k = 257", func(c *Config) { c.N = 157 }, "n+k <= 256"},
		{"systematic, n = 257", func(c *Config) { c.Code, c.N = erasure.SystematicCauchy, 257 }, "n+k <= 256"},
		{"field exhausted", func(c *Config) { c.N, c.K = 60000, 10000 }, "n+k <= 256"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := wideConfig()
			tt.mut(&cfg)
			a, err := New(cfg, cluster)
			switch {
			case tt.want == "" && err != nil:
				t.Fatalf("New: %v", err)
			case tt.want == "" && a.Config().N != cfg.N:
				t.Errorf("created with n = %d, want %d", a.Config().N, cfg.N)
			case tt.want != "" && (err == nil || !strings.Contains(err.Error(), tt.want)):
				t.Errorf("err = %v, want an error naming %q", err, tt.want)
			}
		})
	}
}

func TestWideArchiveSparseReads(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(wideConfig(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(111))
	v1 := make([]byte, a.Capacity())
	rng.Read(v1)
	i1 := mustCommit(t, a, v1)
	if i1.ShardWrites != 156 {
		t.Fatalf("shard writes = %d, want 156", i1.ShardWrites)
	}
	// One modified block out of k=100: gamma=1, so reading version 2
	// costs k + 2 = 102 instead of 2k = 200.
	v2 := editBlocks(v1, 4, 42)
	i2 := mustCommit(t, a, v2)
	if i2.Gamma != 1 {
		t.Fatalf("gamma = %d, want 1", i2.Gamma)
	}
	got, stats, err := a.RetrieveContext(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Error("wide retrieval mismatch")
	}
	if stats.NodeReads != 102 {
		t.Errorf("NodeReads = %d, want 102 (k + 2*gamma)", stats.NodeReads)
	}
	if stats.SparseReads != 1 {
		t.Errorf("SparseReads = %d, want 1", stats.SparseReads)
	}
}

func TestWideArchiveManifestRoundTrip(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(wideConfig(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(113))
	v1 := make([]byte, a.Capacity())
	rng.Read(v1)
	mustCommit(t, a, v1)

	m := a.Manifest()
	if m.Field != "gf8" {
		t.Errorf("manifest field = %q, want gf8", m.Field)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Load(&buf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Config(); got.N != 156 || got.K != 100 {
		t.Errorf("reopened as (%d,%d), want (156,100)", got.N, got.K)
	}
	got, _, err := b.RetrieveContext(t.Context(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v1) {
		t.Error("wide manifest round trip mismatch")
	}
}

func TestWideArchiveRepair(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(wideConfig(), cluster)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(114))
	v1 := make([]byte, a.Capacity())
	rng.Read(v1)
	mustCommit(t, a, v1)
	v2 := editBlocks(v1, 4, 3)
	mustCommit(t, a, v2)

	wipeArchiveShards(t, a, cluster, 17)
	report, err := a.RepairNodeContext(t.Context(), 17)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsRepaired != 2 {
		t.Errorf("repaired = %d, want 2 (full + delta)", report.ShardsRepaired)
	}
	if got, _ := mustRetrieve(t, a, 2); !bytes.Equal(got, v2) {
		t.Error("version 2 differs after the repair")
	}
}

// TestParseField: a spec's field key takes the one coding field, "gf8", or
// no value, which an archive written before the key existed carries; any
// other value, a differently written "gf8" included, is refused by name.
func TestParseField(t *testing.T) {
	for _, field := range []string{"", "gf8", "GF8", "gf16"} {
		t.Run(field, func(t *testing.T) {
			spec := wideConfig().Spec()
			spec.Field = field
			cfg, err := spec.config("wide")
			if field == "" || field == gf8 {
				if err != nil || cfg.Spec() != wideConfig().Spec() {
					t.Errorf("config = %+v, %v; want the spec's settings", cfg, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), `"`+field+`"`) {
				t.Errorf("err = %v, want an error naming %q", err, field)
			}
		})
	}
}
