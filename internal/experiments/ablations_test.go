package experiments

import (
	"strconv"
	"testing"
)

func TestPunctureTradeoff(t *testing.T) {
	table, err := Puncture(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (t = 0, 1, 2)", len(table.Rows))
	}
	overhead := columnIndex(t, table, "delta-overhead")
	deltaLoss := columnIndex(t, table, "delta-loss@p=0.1")
	archiveLoss := columnIndex(t, table, "archive-loss@p=0.1")
	c2 := columnIndex(t, table, "criterion2-sets")

	// t=0 row is the baseline: overhead 2, archive loss == Prob(E_1), 15
	// Criterion-2 sets.
	if got := parseCell(t, table.Rows[0][overhead]); got != 2 {
		t.Errorf("t=0 overhead = %v, want 2", got)
	}
	if got := table.Rows[0][c2]; got != "15" {
		t.Errorf("t=0 criterion-2 sets = %s, want 15", got)
	}

	// Monotonicity: more puncturing, less storage, more loss.
	for i := 1; i < len(table.Rows); i++ {
		if parseCell(t, table.Rows[i][overhead]) >= parseCell(t, table.Rows[i-1][overhead]) {
			t.Errorf("overhead not decreasing at t=%d", i)
		}
		if parseCell(t, table.Rows[i][deltaLoss]) < parseCell(t, table.Rows[i-1][deltaLoss]) {
			t.Errorf("delta loss decreasing at t=%d", i)
		}
		if parseCell(t, table.Rows[i][archiveLoss]) < parseCell(t, table.Rows[i-1][archiveLoss]) {
			t.Errorf("archive loss decreasing at t=%d", i)
		}
	}

	// The paper's motivating observation: unpunctured non-systematic SEC
	// wastes delta resilience. With t=0 the archive loss is bottlenecked
	// by x_1 (eq. 13), so puncturing one shard must cost little:
	// archive-loss(t=1)/archive-loss(t=0) stays within a small factor.
	base := parseCell(t, table.Rows[0][archiveLoss])
	one := parseCell(t, table.Rows[1][archiveLoss])
	if one > 3*base {
		t.Errorf("puncturing 1 shard multiplied archive loss by %v (> 3x)", one/base)
	}
}

func TestReversedMirrorsBasic(t *testing.T) {
	table, err := Reversed(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(table.Rows))
	}
	basic := columnIndex(t, table, "basic")
	reversed := columnIndex(t, table, "reversed")
	optimized := columnIndex(t, table, "optimized")
	nd := columnIndex(t, table, "non-differential")

	wantBasic := []int{10, 16, 26, 32, 42}
	wantReversed := []int{42, 36, 26, 20, 10} // mirror image
	for l := 0; l < 5; l++ {
		if got := table.Rows[l][basic]; got != strconv.Itoa(wantBasic[l]) {
			t.Errorf("basic l=%d: %s, want %d", l+1, got, wantBasic[l])
		}
		if got := table.Rows[l][reversed]; got != strconv.Itoa(wantReversed[l]) {
			t.Errorf("reversed l=%d: %s, want %d", l+1, got, wantReversed[l])
		}
		if got := table.Rows[l][nd]; got != "10" {
			t.Errorf("non-differential l=%d: %s, want 10", l+1, got)
		}
		// Optimized never exceeds basic.
		if parseCell(t, table.Rows[l][optimized]) > parseCell(t, table.Rows[l][basic]) {
			t.Errorf("optimized exceeds basic at l=%d", l+1)
		}
	}
	// The headline: reversed makes the latest version as cheap as the
	// baseline.
	if table.Rows[4][reversed] != table.Rows[4][nd] {
		t.Error("reversed latest-version cost differs from baseline k")
	}
}
