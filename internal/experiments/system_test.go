package experiments

import (
	"bytes"
	"math"
	"testing"
)

func TestFig4SystemMatchesAnalysis(t *testing.T) {
	table, err := Fig4System(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != len(Fig4SysGrid) {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	sm := columnIndex(t, table, "systematic(measured)")
	se := columnIndex(t, table, "systematic(exact)")
	nm := columnIndex(t, table, "non-systematic(measured)")
	ne := columnIndex(t, table, "non-systematic(exact)")
	for _, row := range table.Rows {
		// The live system must achieve the analytic mu_1 (sampling error
		// only: ~4000 trials).
		if math.Abs(parseCell(t, row[sm])-parseCell(t, row[se])) > 0.05 {
			t.Errorf("p=%s: systematic measured %s vs exact %s", row[0], row[sm], row[se])
		}
		if math.Abs(parseCell(t, row[nm])-parseCell(t, row[ne])) > 1e-9 {
			t.Errorf("p=%s: non-systematic measured %s vs exact %s (must be exactly 2)", row[0], row[nm], row[ne])
		}
	}
}

func TestRepairExperiment(t *testing.T) {
	table, err := Repair(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != len(RepairRates) {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	with := columnIndex(t, table, "availability(repair)")
	without := columnIndex(t, table, "availability(no-repair)")
	repairs := columnIndex(t, table, "repairs")
	for i, row := range table.Rows {
		w, wo := parseCell(t, row[with]), parseCell(t, row[without])
		if w <= wo {
			t.Errorf("rate %s: repair availability %v <= no-repair %v", row[0], w, wo)
		}
		// Moderate failure rates: repair holds availability near 1. The
		// highest rate demonstrates the limit - a burst beyond n-k
		// simultaneous losses is unrepairable - so only the ordering is
		// asserted there.
		if RepairRates[i] <= 0.05 && w < 0.95 {
			t.Errorf("rate %s: availability with repair = %v, want near 1", row[0], w)
		}
		if wo > 0.6 {
			t.Errorf("rate %s: availability without repair = %v, want decayed", row[0], wo)
		}
		if parseCell(t, row[repairs]) == 0 {
			t.Errorf("rate %s: no repairs happened", row[0])
		}
	}
}

func TestLSweepGrowsTowardPerDeltaSaving(t *testing.T) {
	table, err := LSweep(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != len(LSweepLengths) {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	an := columnIndex(t, table, "exp(alpha=1.1):analytic(%)")
	me := columnIndex(t, table, "exp(alpha=1.1):measured(%)")
	pan := columnIndex(t, table, "poisson(lambda=5):analytic(%)")
	// Reduction grows with L for both PMFs (the full first read
	// amortizes) and measured tracks analytic.
	var prev float64 = -1
	for _, row := range table.Rows {
		a := parseCell(t, row[an])
		if a <= prev {
			t.Errorf("L=%s: exponential reduction %v not increasing", row[0], a)
		}
		prev = a
		if math.Abs(a-parseCell(t, row[me])) > 2.5 {
			t.Errorf("L=%s: measured %s far from analytic %v", row[0], row[me], a)
		}
		// Exponential always beats Poisson.
		if parseCell(t, row[pan]) >= a {
			t.Errorf("L=%s: Poisson reduction >= exponential", row[0])
		}
	}
	// The L=5 exponential point lands in the paper's "up to 20%" story:
	// strictly above the 2-version value and below the per-delta bound.
	l5 := parseCell(t, table.Rows[2][an])
	l2 := parseCell(t, table.Rows[0][an])
	if !(l5 > l2 && l5 < 35) {
		t.Errorf("L=5 reduction %v vs L=2 %v out of expected band", l5, l2)
	}
}

func TestRepairSimWithoutFailures(t *testing.T) {
	archive, cluster, _, err := repairArchive(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	result, err := simulateRepair(t.Context(), archive, cluster, repairSim{failurePerStep: 0, repairDelay: 1, steps: 20, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if result.availability() != 1 {
		t.Errorf("availability = %v, want 1", result.availability())
	}
	if result.failures != 0 || result.repairs != 0 || result.repairReads != 0 {
		t.Errorf("spurious activity: %+v", result)
	}
}

func TestRepairSimKeepsDataIntact(t *testing.T) {
	archive, cluster, versions, err := repairArchive(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	result, err := simulateRepair(t.Context(), archive, cluster, repairSim{failurePerStep: 0.05, repairDelay: 2, steps: 200, seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if result.failures == 0 {
		t.Fatal("no failures injected; test is vacuous")
	}
	if result.repairs == 0 || result.shardsRebuilt == 0 {
		t.Errorf("repair never ran: %+v", result)
	}
	// Repair reads k rows per rebuilt object, so at least k reads happened.
	if result.repairReads < 4 {
		t.Errorf("repair reads = %d", result.repairReads)
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

func TestRepairSimImprovesAvailability(t *testing.T) {
	withRepair, err := runRepairSim(t.Context(), repairSim{failurePerStep: 0.08, repairDelay: 1, steps: 300, seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	withoutRepair, err := runRepairSim(t.Context(), repairSim{failurePerStep: 0.08, repairDelay: noRepair, steps: 300, seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if withoutRepair.repairs != 0 {
		t.Fatalf("no-repair run repaired %d nodes", withoutRepair.repairs)
	}
	// With per-step failure 0.08 and no repair, the 8-node cluster decays
	// to fewer than k=4 live nodes quickly; with 1-step repair it stays
	// almost always available.
	if withRepair.availability() < 0.9 {
		t.Errorf("availability with repair = %v, want > 0.9", withRepair.availability())
	}
	if withoutRepair.availability() > 0.5 {
		t.Errorf("availability without repair = %v, want < 0.5", withoutRepair.availability())
	}
}
