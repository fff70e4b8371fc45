// Command covercheck fails CI when per-package statement coverage drops
// below committed floors.
//
//	covercheck -profile cover.out -floors tools/coverage_floors.json [-variant name]
//
// The profile is a standard `go test -coverprofile` file (any mode; with
// -coverpkg, blocks for one package may appear once per test binary and
// are merged by summing counts). The floors file maps import paths to
// minimum coverage percentages:
//
//	{"github.com/secarchive/sec/secclient": 80.0}
//
// A key of the form "path@name" is a second floor for the same package,
// read on a machine where some of its code cannot run (a CPU feature it
// lacks, say). It applies in place of the plain key only under
// -variant name; otherwise it is ignored. One file holds every floor.
//
// A package listed in the floors file but absent from the profile is an
// error — a silently skipped package must not read as a passing gate.
// Floors are a ratchet: when coverage rises, raise the floor in the same
// PR that earned it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path"
	"sort"
	"strconv"
	"strings"
)

// block is one coverage unit: a file region with a statement count.
type block struct {
	file   string
	region string // "start.col,end.col" — identifies the block within the file
}

type blockState struct {
	stmts int
	count int
}

// parseProfile reads a coverprofile and returns per-block merged state.
func parseProfile(pathname string) (map[block]*blockState, error) {
	f, err := os.Open(pathname)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	blocks := make(map[block]*blockState)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "mode:") {
			continue
		}
		// file.go:s.c,e.c numStmts count
		colon := strings.LastIndex(text, ":")
		if colon < 0 {
			return nil, fmt.Errorf("%s:%d: no file separator in %q", pathname, line, text)
		}
		fields := strings.Fields(text[colon+1:])
		if len(fields) != 3 {
			return nil, fmt.Errorf("%s:%d: want 'region stmts count', got %q", pathname, line, text[colon+1:])
		}
		stmts, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: statement count: %v", pathname, line, err)
		}
		count, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: hit count: %v", pathname, line, err)
		}
		b := block{file: text[:colon], region: fields[0]}
		st := blocks[b]
		if st == nil {
			st = &blockState{stmts: stmts}
			blocks[b] = st
		}
		st.count += count
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return blocks, nil
}

// coverageByPackage folds blocks into per-import-path percentages.
func coverageByPackage(blocks map[block]*blockState) map[string]float64 {
	total := make(map[string]int)
	covered := make(map[string]int)
	for b, st := range blocks {
		pkg := path.Dir(b.file)
		total[pkg] += st.stmts
		if st.count > 0 {
			covered[pkg] += st.stmts
		}
	}
	pct := make(map[string]float64, len(total))
	for pkg, n := range total {
		if n > 0 {
			pct[pkg] = 100 * float64(covered[pkg]) / float64(n)
		}
	}
	return pct
}

// selectFloors returns the floor of every package under the given variant:
// a "path@variant" key overrides the plain "path" key, and keys of other
// variants are dropped.
func selectFloors(floors map[string]float64, variant string) map[string]float64 {
	picked := make(map[string]float64, len(floors))
	for key, floor := range floors {
		if pkg, v, ok := strings.Cut(key, "@"); !ok {
			if _, set := picked[key]; !set {
				picked[key] = floor
			}
		} else if v == variant {
			picked[pkg] = floor
		}
	}
	return picked
}

func run(profilePath, floorsPath, variant string, out *strings.Builder) error {
	raw, err := os.ReadFile(floorsPath)
	if err != nil {
		return err
	}
	var floors map[string]float64
	if err := json.Unmarshal(raw, &floors); err != nil {
		return fmt.Errorf("%s: %v", floorsPath, err)
	}
	floors = selectFloors(floors, variant)
	blocks, err := parseProfile(profilePath)
	if err != nil {
		return err
	}
	pct := coverageByPackage(blocks)

	pkgs := make([]string, 0, len(floors))
	for pkg := range floors {
		pkgs = append(pkgs, pkg)
	}
	sort.Strings(pkgs)
	var failures []string
	for _, pkg := range pkgs {
		floor := floors[pkg]
		got, ok := pct[pkg]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: not in profile (floor %.1f%%) — was its test run skipped?", pkg, floor))
			continue
		}
		if got < floor {
			failures = append(failures, fmt.Sprintf("%s: coverage %.1f%% fell below floor %.1f%%", pkg, got, floor))
			continue
		}
		fmt.Fprintf(out, "ok\t%s\t%.1f%% (floor %.1f%%)\n", pkg, got, floor)
	}
	if len(failures) > 0 {
		return fmt.Errorf("coverage regressions:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

func main() {
	profilePath := flag.String("profile", "cover.out", "coverprofile produced by go test")
	floorsPath := flag.String("floors", "tools/coverage_floors.json", "JSON map of import path to minimum coverage percent")
	variant := flag.String("variant", "", "pick the \"path@variant\" floors over the plain ones")
	flag.Parse()
	var out strings.Builder
	if err := run(*profilePath, *floorsPath, *variant, &out); err != nil {
		os.Stdout.WriteString(out.String())
		fmt.Fprintln(os.Stderr, "covercheck:", err)
		os.Exit(1)
	}
	os.Stdout.WriteString(out.String())
}
