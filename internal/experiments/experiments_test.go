package experiments

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/<id>.golden from the tables the experiments render now")

func parseCell(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q is not numeric: %v", s, err)
	}
	return v
}

func columnIndex(t *testing.T, table *Table, name string) int {
	t.Helper()
	for i, c := range table.Columns {
		if c == name {
			return i
		}
	}
	t.Fatalf("table %s has no column %q (have %v)", table.ID, name, table.Columns)
	return -1
}

func TestFig2ExactMatchesClosedForms(t *testing.T) {
	table, err := Fig2(DefaultPGrid())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(table.Rows))
	}
	se := columnIndex(t, table, "systematic(exact)")
	sc := columnIndex(t, table, "systematic(closed-form)")
	ne := columnIndex(t, table, "non-systematic(exact)")
	nc := columnIndex(t, table, "non-systematic(closed-form)")
	for _, row := range table.Rows {
		if math.Abs(parseCell(t, row[se])-parseCell(t, row[sc])) > 1e-9 {
			t.Errorf("p=%s: systematic exact %s != closed form %s", row[0], row[se], row[sc])
		}
		if math.Abs(parseCell(t, row[ne])-parseCell(t, row[nc])) > 1e-9 {
			t.Errorf("p=%s: non-systematic exact %s != closed form %s", row[0], row[ne], row[nc])
		}
		// Fig. 2's message: systematic SEC loses z2 more often.
		if parseCell(t, row[se]) < parseCell(t, row[ne]) {
			t.Errorf("p=%s: systematic safer than non-systematic", row[0])
		}
	}
}

func TestFig3Ordering(t *testing.T) {
	table, err := Fig3(DefaultPGrid())
	if err != nil {
		t.Fatal(err)
	}
	colo := columnIndex(t, table, "colocated(all schemes)")
	dn := columnIndex(t, table, "dispersed(non-systematic)")
	ds := columnIndex(t, table, "dispersed(systematic)")
	dnd := columnIndex(t, table, "dispersed(non-differential)")
	for _, row := range table.Rows {
		c, n, s, nd := parseCell(t, row[colo]), parseCell(t, row[dn]), parseCell(t, row[ds]), parseCell(t, row[dnd])
		if !(c >= n && n >= s && s >= nd) {
			t.Errorf("p=%s: nines ordering violated: %v %v %v %v", row[0], c, n, s, nd)
		}
	}
	// More failures, fewer nines.
	first := parseCell(t, table.Rows[0][colo])
	last := parseCell(t, table.Rows[len(table.Rows)-1][colo])
	if first <= last {
		t.Errorf("nines should fall with p: %v -> %v", first, last)
	}
}

func TestFig4Values(t *testing.T) {
	table, err := Fig4(DefaultPGrid())
	if err != nil {
		t.Fatal(err)
	}
	se := columnIndex(t, table, "systematic(exact)")
	mc := columnIndex(t, table, "systematic(monte-carlo)")
	ns := columnIndex(t, table, "non-systematic")
	nd := columnIndex(t, table, "non-differential")
	for _, row := range table.Rows {
		if got := parseCell(t, row[ns]); got != 2 {
			t.Errorf("p=%s: non-systematic mu = %v, want 2", row[0], got)
		}
		if got := parseCell(t, row[nd]); got != 3 {
			t.Errorf("p=%s: non-differential = %v, want 3", row[0], got)
		}
		exact, sampled := parseCell(t, row[se]), parseCell(t, row[mc])
		if exact < 2 || exact > 3 {
			t.Errorf("p=%s: systematic mu = %v outside [2,3]", row[0], exact)
		}
		if math.Abs(exact-sampled) > 0.02 {
			t.Errorf("p=%s: Monte Carlo %v far from exact %v", row[0], sampled, exact)
		}
	}
}

func TestFig5Shapes(t *testing.T) {
	table, err := Fig5(DefaultPGrid())
	if err != nil {
		t.Fatal(err)
	}
	g1s := columnIndex(t, table, "g1:systematic")
	g2s := columnIndex(t, table, "g2:systematic")
	g1n := columnIndex(t, table, "g1:non-systematic")
	g2n := columnIndex(t, table, "g2:non-systematic")
	last := table.Rows[len(table.Rows)-1] // p = 0.2
	if got := parseCell(t, last[g1s]); got > 2.05 {
		t.Errorf("gamma=1 systematic at p=0.2: %v, want ~2 (paper: almost always 2 reads)", got)
	}
	if got := parseCell(t, last[g2s]); got <= 4.0 || got > 4.5 {
		t.Errorf("gamma=2 systematic at p=0.2: %v, want marginally above 4", got)
	}
	for _, row := range table.Rows {
		if parseCell(t, row[g1n]) != 2 || parseCell(t, row[g2n]) != 4 {
			t.Errorf("p=%s: non-systematic mus = %s,%s, want 2,4", row[0], row[g1n], row[g2n])
		}
	}
}

func TestFig6RowsAreDistributions(t *testing.T) {
	table, err := Fig6()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (support {1,2,3})", len(table.Rows))
	}
	if len(table.Columns) != 1+len(Fig6Alphas)+len(Fig6Lambdas) {
		t.Fatalf("columns = %d", len(table.Columns))
	}
	for col := 1; col < len(table.Columns); col++ {
		sum := 0.0
		for _, row := range table.Rows {
			sum += parseCell(t, row[col])
		}
		// Cells carry 6 significant digits, so allow formatting error.
		if math.Abs(sum-1) > 1e-5 {
			t.Errorf("column %s sums to %v", table.Columns[col], sum)
		}
	}
	// Exponential columns decrease in gamma; Poisson (lambda>=3, k=3)
	// increase.
	expCol := columnIndex(t, table, "exp(alpha=1.6)")
	if !(parseCell(t, table.Rows[0][expCol]) > parseCell(t, table.Rows[2][expCol])) {
		t.Error("exponential PMF not concentrated on small gamma")
	}
	poiCol := columnIndex(t, table, "poisson(lambda=9)")
	if !(parseCell(t, table.Rows[0][poiCol]) < parseCell(t, table.Rows[2][poiCol])) {
		t.Error("Poisson PMF not concentrated on large gamma")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	table, err := Table1(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	// 5 parameters x 2 versions.
	if len(table.Rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(table.Rows))
	}
	find := func(version, param string) []string {
		for _, row := range table.Rows {
			if row[0] == version && row[1] == param {
				return row
			}
		}
		t.Fatalf("row %s/%s not found", version, param)
		return nil
	}
	// I/O reads: first version 3,3,3; second version 2,2,3 (paper Table I).
	first := find("1st", "i/o reads (measured)")
	if first[2] != "3" || first[3] != "3" || first[4] != "3" {
		t.Errorf("1st version reads = %v, want 3,3,3", first[2:])
	}
	second := find("2nd", "i/o reads (measured)")
	if second[2] != "2" || second[3] != "2" || second[4] != "3" {
		t.Errorf("2nd version reads = %v, want 2,2,3", second[2:])
	}
	nodes := find("2nd", "nr. of nodes")
	if nodes[2] != "6" || nodes[3] != "6" || nodes[4] != "6" {
		t.Errorf("node counts = %v, want 6,6,6", nodes[2:])
	}
}

func TestFig7MeasuredMatchesAnalytic(t *testing.T) {
	table, err := Fig7(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	alphas, lambdas := Fig7Params()
	if len(table.Rows) != len(alphas)+len(lambdas) {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	an := columnIndex(t, table, "reduction-analytic(%)")
	me := columnIndex(t, table, "reduction-measured(%)")
	for _, row := range table.Rows {
		a, m := parseCell(t, row[an]), parseCell(t, row[me])
		if math.Abs(a-m) > 2.0 {
			t.Errorf("%s %s: analytic %v vs measured %v", row[0], row[1], a, m)
		}
	}
	// Paper's headline band: exponential PMFs give ~6-13%% reduction,
	// Poisson ~0.5-4.5%%.
	for _, row := range table.Rows {
		a := parseCell(t, row[an])
		switch row[0] {
		case "exponential":
			if a < 4 || a > 14 {
				t.Errorf("exponential %s: reduction %v%% outside the paper's 4-13+ band", row[1], a)
			}
		case "poisson":
			if a < 0.5 || a > 5 {
				t.Errorf("poisson %s: reduction %v%% outside the paper's 0.5-4.5 band", row[1], a)
			}
		}
	}
}

func TestFig8MeasuredMatchesAnalytic(t *testing.T) {
	table, err := Fig8(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	ba := columnIndex(t, table, "basic-analytic(%)")
	bm := columnIndex(t, table, "basic-measured(%)")
	oa := columnIndex(t, table, "optimized-analytic(%)")
	om := columnIndex(t, table, "optimized-measured(%)")
	for _, row := range table.Rows {
		if math.Abs(parseCell(t, row[ba])-parseCell(t, row[bm])) > 4.0 {
			t.Errorf("%s %s: basic analytic %s vs measured %s", row[0], row[1], row[ba], row[bm])
		}
		if math.Abs(parseCell(t, row[oa])-parseCell(t, row[om])) > 4.0 {
			t.Errorf("%s %s: optimized analytic %s vs measured %s", row[0], row[1], row[oa], row[om])
		}
		// Fig. 8's message: optimized SEC pays less excess than basic.
		if parseCell(t, row[oa]) >= parseCell(t, row[ba]) {
			t.Errorf("%s %s: optimized %s >= basic %s", row[0], row[1], row[oa], row[ba])
		}
	}
}

func TestFig9MatchesPaperNumbers(t *testing.T) {
	table, err := Fig9(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(table.Rows))
	}
	want := map[string][]int{
		"basic:lth":                {10, 16, 26, 32, 42},
		"optimized:lth":            {10, 16, 10, 16, 10},
		"non-differential:lth":     {10, 10, 10, 10, 10},
		"basic:first-l":            {10, 16, 26, 32, 42},
		"optimized:first-l":        {10, 16, 26, 32, 42},
		"non-differential:first-l": {10, 20, 30, 40, 50},
	}
	for name, series := range want {
		col := columnIndex(t, table, name)
		for l := 0; l < 5; l++ {
			if got := table.Rows[l][col]; got != strconv.Itoa(series[l]) {
				t.Errorf("%s at l=%d: %s, want %d", name, l+1, got, series[l])
			}
		}
	}
	// Headline: 42 vs 50 total reads, the paper's up-to-20%% saving.
	saving := (50.0 - 42.0) / 50.0 * 100
	if saving < 15 || saving > 20 {
		t.Errorf("total saving %v%% outside the paper's reported range", saving)
	}
}

func TestCensusTable(t *testing.T) {
	table, err := Census()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(table.Rows))
	}
	wantRows := map[string][]string{
		"non-systematic": {"63", "41", "15", "56", "7", "15"},
		"systematic":     {"63", "41", "3", "44", "19", "3"},
	}
	for _, row := range table.Rows {
		want, ok := wantRows[row[0]]
		if !ok {
			t.Fatalf("unexpected row %q", row[0])
		}
		for i, w := range want {
			if row[i+1] != w {
				t.Errorf("%s column %s = %s, want %s", row[0], table.Columns[i+1], row[i+1], w)
			}
		}
	}
}

// TestRegistryRunsEverything runs every experiment and compares the table it
// renders, byte for byte, with testdata/<id>.golden: the suite is seeded and
// counts reads rather than timing them, so "the experiments suite is
// byte-identical" - the acceptance clause of every no-behaviour-change PR - is
// checked here. Regenerate with -update only when a table is meant to change.
func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run skipped in -short mode")
	}
	for _, id := range IDs() {
		table, err := Run(t.Context(), id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if table.ID != id {
			t.Errorf("table ID %q for runner %q", table.ID, id)
		}
		if len(table.Rows) == 0 || len(table.Columns) == 0 {
			t.Errorf("%s: empty table", id)
		}
		var got bytes.Buffer
		if err := table.Format(&got); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		golden := filepath.Join("testdata", id+".golden")
		if *updateGolden {
			if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s differs from %s:\n got:\n%s\n want:\n%s", id, golden, got.Bytes(), want)
		}
	}
	if _, err := Run(t.Context(), "nope"); err == nil {
		t.Error("unknown experiment: want error")
	}
}

func TestTableRendering(t *testing.T) {
	table := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Rows:    [][]string{{"1", "2"}, {"3", "4"}},
	}
	var text bytes.Buffer
	if err := table.Format(&text); err != nil {
		t.Fatal(err)
	}
	out := text.String()
	if !strings.Contains(out, "# x: demo") || !strings.Contains(out, "3") {
		t.Errorf("Format output:\n%s", out)
	}
	var csvBuf bytes.Buffer
	if err := table.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if got := csvBuf.String(); got != "a,b\n1,2\n3,4\n" {
		t.Errorf("CSV output %q", got)
	}
}
