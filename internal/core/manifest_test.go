package core

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

func TestManifestSaveLoadRoundTrip(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(testConfig(OptimizedSEC, erasure.SystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{1}, a.Capacity())
	v2 := editBlocks(v1, a.Config().BlockSize, 0)
	v3 := editBlocks(v2, a.Config().BlockSize, 0, 1, 2) // dense: stored full
	mustCommit(t, a, v1)
	mustCommit(t, a, v2)
	mustCommit(t, a, v3)

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// Reopen against the same cluster.
	b, err := Load(&buf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if b.Versions() != 3 || b.Scheme() != OptimizedSEC {
		t.Fatalf("reopened: versions=%d scheme=%v", b.Versions(), b.Scheme())
	}
	for l, want := range [][]byte{v1, v2, v3} {
		got, _, err := b.RetrieveContext(t.Context(), l+1)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("version %d mismatch after reopen", l+1)
		}
	}

	// Committing after reopen restores the latest-version cache from
	// storage and continues the chain.
	v4 := editBlocks(v3, b.Config().BlockSize, 2)
	info, err := b.CommitContext(t.Context(), v4)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 4 || info.Gamma != 1 {
		t.Errorf("commit after reopen: %+v", info)
	}
	got, _, err := b.RetrieveContext(t.Context(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v4) {
		t.Error("version 4 mismatch")
	}
}

func TestManifestFields(t *testing.T) {
	cluster := store.NewMemCluster(0)
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
	cfg.PunctureDeltas = 2
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{1}, a.Capacity())
	mustCommit(t, a, v1)
	mustCommit(t, a, editBlocks(v1, 4, 1))
	m := a.Manifest()
	if m.N != 6 || m.K != 3 || m.BlockSize != 4 || m.PunctureDeltas != 2 {
		t.Errorf("manifest config = %+v", m)
	}
	if m.Scheme != "basic-sec" || m.Code != "non-systematic-cauchy" || m.Placement != "colocated" {
		t.Errorf("manifest names = %q %q %q", m.Scheme, m.Code, m.Placement)
	}
	if len(m.Entries) != 2 {
		t.Fatalf("entries = %d", len(m.Entries))
	}
	if !m.Entries[0].Full || m.Entries[0].Delta {
		t.Errorf("entry 1 = %+v", m.Entries[0])
	}
	if m.Entries[1].Full || !m.Entries[1].Delta || m.Entries[1].Gamma != 1 {
		t.Errorf("entry 2 = %+v", m.Entries[1])
	}
}

// TestSpecCarriesEveryConfigField sets each Config field in turn to a valid
// non-default value, saves the archive and loads it back: the value must
// survive. A Config field added without a Spec field to persist it fails
// here until it has one (and a value below), or is listed as one no spec
// carries.
func TestSpecCarriesEveryConfigField(t *testing.T) {
	notInSpec := map[string]string{
		"Name": "heads the manifest, beside the spec",
	}
	values := map[string]any{
		"Scheme":            ReversedSEC,
		"Code":              erasure.SystematicVandermonde,
		"Field":             GF16,
		"N":                 7,
		"K":                 2,
		"BlockSize":         8,
		"Placement":         store.DispersedPlacement{N: 6},
		"PunctureDeltas":    1,
		"MaxChainLength":    2,
		"CheckpointEvery":   3,
		"CompactGammaLimit": 1,
		"CompressDeltas":    true,
		"CompressGammaMax":  1,
		"ReadCacheBytes":    4096,
	}
	for _, field := range reflect.VisibleFields(reflect.TypeOf(Config{})) {
		if _, ok := notInSpec[field.Name]; ok {
			continue
		}
		value, ok := values[field.Name]
		if !ok {
			t.Errorf("Config.%s has no test value: persist it in Spec and give it one here", field.Name)
			continue
		}
		t.Run(field.Name, func(t *testing.T) {
			cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
			set := reflect.ValueOf(&cfg).Elem().FieldByIndex(field.Index)
			if reflect.DeepEqual(set.Interface(), value) {
				t.Fatalf("test value %v is the base config's", value)
			}
			set.Set(reflect.ValueOf(value))
			a, err := New(cfg, store.NewMemCluster(0))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := a.Save(&buf); err != nil {
				t.Fatal(err)
			}
			b, err := Load(&buf, store.NewMemCluster(0))
			if err != nil {
				t.Fatal(err)
			}
			if got := reflect.ValueOf(b.Config()).FieldByIndex(field.Index).Interface(); !reflect.DeepEqual(got, value) {
				t.Errorf("Config.%s = %v after Save and Load, want %v", field.Name, got, value)
			}
		})
	}
}

// TestSpecOmitsUnsetSettings pins a create payload that leaves the field,
// the placement and every policy at its default: the bytes clients have
// always sent, which a manifest never shows because it names them all.
func TestSpecOmitsUnsetSettings(t *testing.T) {
	got, err := json.Marshal(Spec{Scheme: "basic-sec", Code: "non-systematic-cauchy", N: 6, K: 3, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"scheme":"basic-sec","code":"non-systematic-cauchy","n":6,"k":3,"block_size":4}`; string(got) != want {
		t.Errorf("spec marshals as %s, want %s", got, want)
	}
}

func TestOpenValidatesManifest(t *testing.T) {
	cluster := store.NewMemCluster(0)
	base := Manifest{
		Name:    "m",
		Spec:    Spec{Scheme: "basic-sec", Code: "non-systematic-cauchy", N: 6, K: 3, BlockSize: 4, Placement: "colocated"},
		Entries: []ManifestEntry{{Version: 1, Full: true, Length: 4}},
	}
	tests := []struct {
		name string
		mut  func(*Manifest)
	}{
		{"bad scheme", func(m *Manifest) { m.Scheme = "zorp" }},
		{"bad code", func(m *Manifest) { m.Code = "zorp" }},
		{"bad placement", func(m *Manifest) { m.Placement = "zorp" }},
		{"bad version order", func(m *Manifest) { m.Entries[0].Version = 2 }},
		{"neither full nor delta", func(m *Manifest) { m.Entries[0].Full = false }},
		{"negative gamma", func(m *Manifest) { m.Entries[0].Gamma = -1 }},
		{"gamma beyond k", func(m *Manifest) { m.Entries[0].Gamma = 4 }},
		{"negative length", func(m *Manifest) { m.Entries[0].Length = -1 }},
		{"length beyond capacity", func(m *Manifest) { m.Entries[0].Length = 13 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m := base
			m.Entries = append([]ManifestEntry(nil), base.Entries...)
			tt.mut(&m)
			if _, err := Open(m, cluster); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

// TestOpenRefusesWindows: a delta's window loads when it lies inside the
// block, and renders back as it was; one on an entry without a delta, one
// reaching past the block or before it, and one of zero width are refused.
func TestOpenRefusesWindows(t *testing.T) {
	manifest := func(full, delta *Window) Manifest {
		return Manifest{
			Name: "m",
			Spec: Spec{Scheme: "basic-sec", Code: "non-systematic-cauchy", N: 6, K: 3, BlockSize: 256, Placement: "colocated"},
			Entries: []ManifestEntry{
				{Version: 1, Full: true, Length: 768, Window: full},
				{Version: 2, Delta: true, Gamma: 1, Length: 768, Window: delta},
			},
		}
	}
	a, err := Open(manifest(nil, &Window{Off: 192, Width: 64}), store.NewMemCluster(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Manifest().Entries[1].Window; got == nil || *got != (Window{Off: 192, Width: 64}) {
		t.Errorf("window renders back as %v", got)
	}
	for _, tt := range []struct {
		name      string
		m         Manifest
		complaint string
	}{
		{"no delta", manifest(&Window{Width: 64}, nil), "stores no delta"},
		{"past the block", manifest(nil, &Window{Off: 192, Width: 128}), "outside its 256-byte blocks"},
		{"before the block", manifest(nil, &Window{Off: -64, Width: 64}), "outside its 256-byte blocks"},
		{"zero width", manifest(nil, &Window{Off: 128}), "of width 0"},
	} {
		if _, err := Open(tt.m, store.NewMemCluster(0)); err == nil || !strings.Contains(err.Error(), tt.complaint) {
			t.Errorf("%s: err = %v, want one saying %q", tt.name, err, tt.complaint)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json"), store.NewMemCluster(0)); err == nil {
		t.Error("want error, got nil")
	}
}

// publishFolded publishes a's changes and folds them into one snapshot on
// the nodes.
func publishFolded(ctx context.Context, a *Archive) error {
	_, err := a.PublishContext(ctx, true)
	return err
}

func TestSaveToClusterAndLoadFromCluster(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{4}, a.Capacity())
	mustCommit(t, a, v1)
	if err := publishFolded(t.Context(), a); err != nil {
		t.Fatal(err)
	}
	v2 := editBlocks(v1, 4, 0)
	mustCommit(t, a, v2)
	if err := publishFolded(t.Context(), a); err != nil {
		t.Fatal(err)
	}

	b, err := OpenContext(t.Context(), "t", cluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Versions() != 2 {
		t.Fatalf("reopened versions = %d, want 2", b.Versions())
	}
	got, _, err := b.RetrieveContext(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, v2) {
		t.Error("cluster-manifest reopen mismatch")
	}
}

func TestLoadFromClusterPicksFreshestReplica(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{4}, a.Capacity())
	mustCommit(t, a, v1)
	if err := publishFolded(t.Context(), a); err != nil {
		t.Fatal(err)
	}
	// Node 0 is down during the second save, so its replica goes stale.
	mustCommit(t, a, editBlocks(v1, 4, 1))
	if err := cluster.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := publishFolded(t.Context(), a); err != nil {
		t.Fatal(err)
	}
	cluster.HealAll()
	b, err := OpenContext(t.Context(), "t", cluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Versions() != 2 {
		t.Errorf("loaded stale replica: versions = %d, want 2", b.Versions())
	}
}

// TestLoadFromClusterSkipsStaleSameLengthReplica: a compaction rewrites
// bases without changing the number of entries, so a node that missed the
// post-compaction publish holds a replica exactly as long as the fresh one
// - and naming codewords the reclaim has since deleted. The load must pick
// by generation even when the stale node answers first.
func TestLoadFromClusterSkipsStaleSameLengthReplica(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	object := bytes.Repeat([]byte{7}, a.Capacity())
	var versions [][]byte
	for v := 0; v < 5; v++ {
		// Every edit lands in block 0, so deltas merge to gamma 1 and the
		// compaction rebases instead of promoting.
		object = bytes.Clone(object)
		object[v%4] ^= 0x5A
		versions = append(versions, object)
		mustCommit(t, a, object)
	}
	if err := publishFolded(t.Context(), a); err != nil {
		t.Fatal(err)
	}
	info, err := a.CompactToContext(t.Context(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Rebased) == 0 {
		t.Fatalf("compaction rebased nothing: %+v", info)
	}
	// Node 0 is partitioned away while the compacted chain is published and
	// what it superseded is reclaimed.
	if err := cluster.Fail(0); err != nil {
		t.Fatal(err)
	}
	if err := publishFolded(t.Context(), a); err != nil {
		t.Fatal(err)
	}
	if deleted, _, err := a.ReclaimSupersededContext(t.Context()); err != nil || deleted == 0 {
		t.Fatalf("reclaim deleted %d shards, err %v", deleted, err)
	}
	cluster.HealAll()

	b, err := OpenContext(t.Context(), "t", cluster, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := a.Manifest()
	want.Generation += 2 // a load from the nodes skips two generations
	if got := b.Manifest(); !reflect.DeepEqual(got, want) {
		t.Fatalf("loaded the stale replica:\n got %+v\nwant %+v", got, want)
	}
	for v, want := range versions {
		got, _, err := b.RetrieveContext(t.Context(), v+1)
		if err != nil {
			t.Fatalf("version %d: %v", v+1, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("version %d mismatch after reopening from the cluster", v+1)
		}
	}
}

// TestManifestWithoutGenerationLoadsAsZero: manifests and replicas written
// before the generation existed carry no such field and still open, at
// generation 0; and a generation-0 manifest is written without the field.
func TestManifestWithoutGenerationLoadsAsZero(t *testing.T) {
	const old = `{"name":"t","scheme":"basic-sec","code":"non-systematic-cauchy","n":6,"k":3,"block_size":4,"placement":"colocated",
		"entries":[{"version":1,"full":true,"delta":false,"gamma":0,"length":12}]}`
	cluster := store.NewMemCluster(6)
	for node := 0; node < cluster.Size(); node++ {
		if err := cluster.Put(t.Context(), node, store.ShardID{Object: manifestID("t")}, []byte(old)); err != nil {
			t.Fatal(err)
		}
	}
	m, _, err := manifestFromCluster(t.Context(), "t", cluster)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Open(m, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if m := a.Manifest(); m.Generation != 0 || len(m.Entries) != 1 {
		t.Errorf("old replica loaded as generation %d with %d entries", m.Generation, len(m.Entries))
	}
	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "generation") {
		t.Errorf("generation 0 is written out: %s", buf.String())
	}
}

func TestLoadFromClusterMissing(t *testing.T) {
	if _, err := OpenContext(t.Context(), "ghost", store.NewMemCluster(3), nil); err == nil {
		t.Error("want error, got nil")
	}
}

func TestSaveToClusterAllNodesDown(t *testing.T) {
	cluster := store.NewMemCluster(0)
	a, err := New(testConfig(BasicSEC, erasure.NonSystematicCauchy), cluster)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, a, []byte{1})
	if err := cluster.Fail(0, 1, 2, 3, 4, 5); err != nil {
		t.Fatal(err)
	}
	if err := publishFolded(t.Context(), a); err == nil {
		t.Error("want error with every node down")
	}
}

func TestOpenDispersedPlacement(t *testing.T) {
	cluster := store.NewMemCluster(0)
	cfg := testConfig(BasicSEC, erasure.NonSystematicCauchy)
	cfg.Placement = store.DispersedPlacement{N: 6}
	a, err := New(cfg, cluster)
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte{1}, a.Capacity())
	mustCommit(t, a, v1)
	mustCommit(t, a, editBlocks(v1, 4, 0))

	var buf bytes.Buffer
	if err := a.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := Load(&buf, cluster)
	if err != nil {
		t.Fatal(err)
	}
	if b.Config().Placement.Name() != "dispersed" {
		t.Errorf("placement = %q", b.Config().Placement.Name())
	}
	got, _, err := b.RetrieveContext(t.Context(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, editBlocks(v1, 4, 0)) {
		t.Error("dispersed reopen retrieval mismatch")
	}
}
