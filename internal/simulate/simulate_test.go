package simulate

import (
	"bytes"
	"math/rand"
	"testing"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/workload"
)

// buildSimArchive commits a 4-version chain onto a fresh cluster and
// returns everything plus the version contents for final verification.
func buildSimArchive(t *testing.T) (*core.Archive, *store.Cluster, [][]byte) {
	t.Helper()
	cluster := store.NewMemCluster(0)
	archive, err := core.New(core.Config{
		Name:      "sim",
		Scheme:    core.BasicSEC,
		Code:      erasure.NonSystematicCauchy,
		N:         8,
		K:         4,
		BlockSize: 16,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(101))
	v := make([]byte, archive.Capacity())
	rng.Read(v)
	versions := [][]byte{v}
	if _, err := archive.CommitContext(t.Context(), v); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		next, err := workload.SparseEdit(rng, v, 16, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := archive.CommitContext(t.Context(), next); err != nil {
			t.Fatal(err)
		}
		versions = append(versions, next)
		v = next
	}
	return archive, cluster, versions
}

func TestRunWithoutFailures(t *testing.T) {
	archive, cluster, _ := buildSimArchive(t)
	result, err := Run(t.Context(), archive, cluster, Config{FailurePerStep: 0, RepairDelay: 1, Steps: 20, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if result.Availability() != 1 {
		t.Errorf("availability = %v, want 1", result.Availability())
	}
	if result.FailuresInjected != 0 || result.RepairsCompleted != 0 || result.RepairReads != 0 {
		t.Errorf("spurious activity: %+v", result)
	}
}

func TestRunWithRepairKeepsDataIntact(t *testing.T) {
	archive, cluster, versions := buildSimArchive(t)
	result, err := Run(t.Context(), archive, cluster, Config{
		FailurePerStep: 0.05,
		RepairDelay:    2,
		Steps:          200,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if result.FailuresInjected == 0 {
		t.Fatal("no failures injected; test is vacuous")
	}
	if result.RepairsCompleted == 0 || result.ShardsRebuilt == 0 {
		t.Errorf("repair never ran: %+v", result)
	}
	// Repair traffic is k reads per rebuilt... per object repaired; at
	// least k reads must have happened for some rebuild.
	if result.RepairReads < 4 {
		t.Errorf("repair reads = %d", result.RepairReads)
	}
	// After the run (cluster healed), every version must be bit-exact:
	// repair never corrupted anything.
	for l, want := range versions {
		got, _, err := archive.RetrieveContext(t.Context(), l+1)
		if err != nil {
			t.Fatalf("version %d after simulation: %v", l+1, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("version %d corrupted by simulation", l+1)
		}
	}
}

func TestRepairImprovesAvailability(t *testing.T) {
	cfgRepair := Config{FailurePerStep: 0.08, RepairDelay: 1, Steps: 300, Seed: 11}
	cfgNoRepair := cfgRepair
	cfgNoRepair.RepairDelay = NoRepair

	archiveA, clusterA, _ := buildSimArchive(t)
	withRepair, err := Run(t.Context(), archiveA, clusterA, cfgRepair)
	if err != nil {
		t.Fatal(err)
	}
	archiveB, clusterB, _ := buildSimArchive(t)
	withoutRepair, err := Run(t.Context(), archiveB, clusterB, cfgNoRepair)
	if err != nil {
		t.Fatal(err)
	}
	if withoutRepair.RepairsCompleted != 0 {
		t.Fatalf("no-repair run repaired %d nodes", withoutRepair.RepairsCompleted)
	}
	// With per-step failure 0.08 and no repair, the 8-node cluster decays
	// to fewer than k=4 live nodes quickly; with 1-step repair it stays
	// almost always available.
	if withRepair.Availability() < 0.9 {
		t.Errorf("availability with repair = %v, want > 0.9", withRepair.Availability())
	}
	if withoutRepair.Availability() > 0.5 {
		t.Errorf("availability without repair = %v, want < 0.5", withoutRepair.Availability())
	}
	if withRepair.Availability() <= withoutRepair.Availability() {
		t.Errorf("repair did not improve availability: %v vs %v",
			withRepair.Availability(), withoutRepair.Availability())
	}
}

func TestRunValidation(t *testing.T) {
	archive, cluster, _ := buildSimArchive(t)
	tests := []struct {
		name string
		cfg  Config
	}{
		{"negative probability", Config{FailurePerStep: -0.1, Steps: 1}},
		{"probability above one", Config{FailurePerStep: 1.5, Steps: 1}},
		{"zero steps", Config{FailurePerStep: 0.1, Steps: 0}},
		{"bad repair delay", Config{FailurePerStep: 0.1, Steps: 1, RepairDelay: -2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Run(t.Context(), archive, cluster, tt.cfg); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
	if _, err := Run(t.Context(), nil, cluster, Config{Steps: 1}); err == nil {
		t.Error("nil archive: want error")
	}
	empty, emptyCluster := emptyArchive(t)
	if _, err := Run(t.Context(), empty, emptyCluster, Config{Steps: 1}); err == nil {
		t.Error("empty archive: want error")
	}
}

func emptyArchive(t *testing.T) (*core.Archive, *store.Cluster) {
	t.Helper()
	cluster := store.NewMemCluster(0)
	archive, err := core.New(core.Config{
		Scheme: core.BasicSEC, Code: erasure.NonSystematicCauchy,
		N: 6, K: 3, BlockSize: 4,
	}, cluster)
	if err != nil {
		t.Fatal(err)
	}
	return archive, cluster
}

func TestResultAvailabilityZeroSteps(t *testing.T) {
	if got := (Result{}).Availability(); got != 0 {
		t.Errorf("Availability of empty result = %v", got)
	}
}
