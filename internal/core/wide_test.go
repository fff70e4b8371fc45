package core

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// wideConfig is an archive configuration impossible over GF(2^8):
// n+k = 300 > 256 field points.
func wideConfig() Config {
	return Config{
		Name:      "wide",
		Scheme:    BasicSEC,
		Code:      erasure.NonSystematicCauchy,
		Field:     GF16,
		N:         200,
		K:         100,
		BlockSize: 4,
	}
}

func TestWideFieldValidation(t *testing.T) {
	cluster := store.NewMemCluster(0)
	tests := []struct {
		name string
		mut  func(*Config)
	}{
		{"systematic not supported", func(c *Config) { c.Code = erasure.SystematicCauchy }},
		{"odd block size", func(c *Config) { c.BlockSize = 3 }},
		{"bad field value", func(c *Config) { c.Field = Field(9) }},
		{"field exhausted even for gf16", func(c *Config) { c.N = 60000; c.K = 10000 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			cfg := wideConfig()
			tt.mut(&cfg)
			if _, err := New(cfg, cluster); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
	// GF8 with n+k > 256 must fail, proving GF16 is needed.
	cfg := wideConfig()
	cfg.Field = GF8
	if _, err := New(cfg, cluster); err == nil {
		t.Error("GF8 with n+k > 256: want error")
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
	if i1.ShardWrites != 200 {
		t.Fatalf("shard writes = %d, want 200", i1.ShardWrites)
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
	if m.Field != "gf16" {
		t.Errorf("manifest field = %q, want gf16", m.Field)
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Load(&buf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if b.Config().Field != GF16 {
		t.Errorf("reopened field = %v", b.Config().Field)
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
	mustCommit(t, a, editBlocks(v1, 4, 3))

	wipeArchiveShards(t, a, cluster, 17)
	report, err := a.RepairNodeContext(t.Context(), 17)
	if err != nil {
		t.Fatal(err)
	}
	if report.ShardsRepaired != 2 {
		t.Errorf("repaired = %d, want 2 (full + delta)", report.ShardsRepaired)
	}
}

func TestParseField(t *testing.T) {
	for _, f := range []Field{GF8, GF16} {
		got, err := ParseField(f.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != f {
			t.Errorf("ParseField(%q) = %v", f.String(), got)
		}
	}
	if got, err := ParseField(""); err != nil || got != GF8 {
		t.Errorf("ParseField(\"\") = %v, %v; want GF8", got, err)
	}
	if _, err := ParseField("gf32"); err == nil {
		t.Error("ParseField(gf32): want error")
	}
}
