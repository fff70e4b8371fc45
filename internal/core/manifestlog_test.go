package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// replay applies framed records in order, each the way catch-up applies
// what a node answers - decodeRecord, then apply - and returns how many
// leading bytes hold intact frames: it ends at the first torn or damaged
// one. An intact record that cannot follow is apply's error.
func replay(m *Manifest, frames []byte) (valid int, err error) {
	for valid < len(frames) {
		rec, n, err := decodeRecord(m.Name, frames[valid:])
		if err != nil {
			return valid, nil
		}
		if err := m.apply(rec); err != nil {
			return valid, err
		}
		valid += n
	}
	return valid, nil
}

// replayChecker is the model of the manifest records: it takes the archive's
// record after every operation, the way a gateway publish does, and checks
// that a snapshot held from some earlier generation plus the records since
// marshals byte-identical to the archive's own manifest. However the
// archive learns which entries an operation changed, this is what keeps it
// honest: an unmarked rewrite shows as a diverging byte.
type replayChecker struct {
	t *testing.T
	a *Archive
	// first is the snapshot the records start from, recent one taken a few
	// operations ago; every record is replayed over both, so the records
	// at or below recent's generation arrive a second time and must be
	// skipped.
	first, recent []byte
	log           []byte
	checks        int
}

func newReplayChecker(t *testing.T, a *Archive) *replayChecker {
	t.Helper()
	snap := a.Manifest().encode()
	return &replayChecker{t: t, a: a, first: snap, recent: snap}
}

// nextRecord takes the record a publish would send now, if anything changed.
func nextRecord(a *Archive) (manifestRecord, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nextRecordLocked()
}

func (c *replayChecker) check(op string) {
	c.t.Helper()
	before := c.a.Manifest().Generation
	if rec, ok := nextRecord(c.a); ok {
		if rec.Generation != before+1 {
			c.t.Fatalf("after %s: record generation %d follows %d", op, rec.Generation, before)
		}
		c.log = append(c.log, rec.frame(c.a.Name())...)
	}
	var want bytes.Buffer
	if err := c.a.Save(&want); err != nil {
		c.t.Fatal(err)
	}
	for _, snap := range [][]byte{c.first, c.recent} {
		var m Manifest
		if err := json.Unmarshal(snap, &m); err != nil {
			c.t.Fatal(err)
		}
		from := m.Generation
		valid, err := replay(&m, c.log)
		if err != nil || valid != len(c.log) {
			c.t.Fatalf("after %s: replay from generation %d stopped at byte %d of %d: %v", op, from, valid, len(c.log), err)
		}
		if got := m.encode(); !bytes.Equal(got, want.Bytes()) {
			c.t.Fatalf("after %s: snapshot at generation %d plus the records since differs from the manifest:\n got %s\nwant %s", op, from, got, want.Bytes())
		}
	}
	if c.checks++; c.checks%4 == 0 {
		c.recent = want.Bytes()
	}
}

// TestManifestReplayEquivalence drives the chain shapes whose commits and
// maintenance rewrite entries other than the one they append - Reversed SEC
// tip rewrites, CheckpointEvery retention, MaxChainLength auto-compaction,
// manual compaction, every operation followed by its reclaim, on top of the mixed chain's
// full, sparse, dense, CDEC and zero deltas - and checks the replay
// equivalence after every operation. At the end the replayed manifest, not
// the live archive, serves every version.
func TestManifestReplayEquivalence(t *testing.T) {
	const n, k, blockSize = 10, 5, 16
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"mixed chain", Config{Scheme: BasicSEC, CompressDeltas: true, CompressGammaMax: 1}},
		{"optimized", Config{Scheme: OptimizedSEC, CheckpointEvery: 4}},
		{"reversed tip rewrites", Config{Scheme: ReversedSEC}},
		{"reversed with checkpoints", Config{Scheme: ReversedSEC, CheckpointEvery: 3}},
		{"auto-compaction", Config{Scheme: BasicSEC, MaxChainLength: 2, CheckpointEvery: 5}},
		{"auto-compaction compressed", Config{Scheme: BasicSEC, MaxChainLength: 3, CompressDeltas: true}},
		{"reversed auto-compaction", Config{Scheme: ReversedSEC, MaxChainLength: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Name, cfg.Code, cfg.N, cfg.K, cfg.BlockSize = "replay", erasure.NonSystematicCauchy, n, k, blockSize
			cluster := store.NewMemCluster(0)
			a, err := New(cfg, cluster)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(21))
			check := newReplayChecker(t, a)
			current := make([]byte, k*blockSize)
			rng.Read(current)
			var model [][]byte
			for step := 0; step < 40; step++ {
				switch op := rng.Intn(8); {
				case op < 6 || len(model) == 0:
					if len(model) > 0 {
						// gammas 0..k: zero, sparse, CDEC-eligible and dense deltas.
						current, err = editRandomBlocks(rng, current, blockSize, rng.Intn(k+1))
						if err != nil {
							t.Fatal(err)
						}
					}
					if _, err := a.CommitContext(t.Context(), current); err != nil {
						t.Fatalf("commit %d: %v", len(model)+1, err)
					}
					model = append(model, current)
					check.check(fmt.Sprintf("commit %d", len(model)))
				default:
					if _, err := a.CompactToContext(t.Context(), 1+rng.Intn(3)); err != nil {
						t.Fatal(err)
					}
					check.check("compact")
				}
				// What the operation superseded is freed after its record, as
				// a gateway's publish does.
				if _, _, err := a.ReclaimSupersededContext(t.Context()); err != nil {
					t.Fatal(err)
				}
				check.check("reclaim")
			}
			var m Manifest
			if err := json.Unmarshal(check.first, &m); err != nil {
				t.Fatal(err)
			}
			if _, err := replay(&m, check.log); err != nil {
				t.Fatal(err)
			}
			b, err := Open(m, cluster)
			if err != nil {
				t.Fatal(err)
			}
			for v, want := range model {
				got, _, err := b.RetrieveContext(t.Context(), v+1)
				if err != nil {
					t.Fatalf("version %d from the replayed manifest: %v", v+1, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("version %d from the replayed manifest differs", v+1)
				}
			}
		})
	}
}

// logBase is the manifest the record tests and the fuzzer extend: two
// versions at generation 3.
func logBase() Manifest {
	return Manifest{
		Name: "t", Generation: 3,
		Spec: Spec{Scheme: "basic-sec", Code: "non-systematic-cauchy", N: 6, K: 3, BlockSize: 4, Placement: "colocated"},
		Entries: []ManifestEntry{
			{Version: 1, Full: true, Length: 12},
			{Version: 2, Delta: true, Gamma: 1, Length: 12},
		},
	}
}

func TestManifestApplyRejectsWhatMayNotFollow(t *testing.T) {
	v3 := ManifestEntry{Version: 3, Delta: true, Gamma: 2, Length: 10, CRC32C: "0000002a"}
	next := manifestRecord{Generation: 4, Versions: 3, Entries: []ManifestEntry{v3}}

	m := logBase()
	if err := m.apply(next); err != nil || m.Generation != 4 || len(m.Entries) != 3 {
		t.Fatalf("successor record: err %v, generation %d, %d entries", err, m.Generation, len(m.Entries))
	}
	// A record that arrives twice is skipped, not an error.
	m.Entries[2].Gamma = 1
	if err := m.apply(next); err != nil || m.Generation != 4 || m.Entries[2].Gamma != 1 {
		t.Errorf("duplicate record: err %v, generation %d, entry %+v", err, m.Generation, m.Entries[2])
	}
	// Compaction may restate how a committed version is stored. A record an
	// older build wrote carries no digest, and the held one stays.
	rebase := manifestRecord{Generation: 5, Versions: 3, Entries: []ManifestEntry{{Version: 3, Delta: true, Gamma: 1, Length: 10, Base: 1}}}
	if err := m.apply(rebase); err != nil || m.Generation != 5 || m.Entries[2].Base != 1 || m.Entries[2].CRC32C != v3.CRC32C {
		t.Fatalf("rebase record: err %v, generation %d, entry %+v", err, m.Generation, m.Entries[2])
	}

	for _, tc := range []struct {
		name string
		rec  manifestRecord
		want error
	}{
		{"generation gap", manifestRecord{Generation: 7, Versions: 3}, ErrGenerationGap},
		{"fewer versions", manifestRecord{Generation: 6, Versions: 2}, ErrImmutable},
		{"committed length changes", manifestRecord{Generation: 6, Versions: 3, Entries: []ManifestEntry{{Version: 2, Delta: true, Gamma: 1, Length: 11}}}, ErrImmutable},
		{"committed digest changes", manifestRecord{Generation: 6, Versions: 3, Entries: []ManifestEntry{{Version: 3, Delta: true, Gamma: 1, Length: 10, Base: 1, CRC32C: "0000002b"}}}, ErrImmutable},
		{"appended version missing", manifestRecord{Generation: 6, Versions: 4}, store.ErrCorrupt},
		{"append skips a version", manifestRecord{Generation: 6, Versions: 5, Entries: []ManifestEntry{{Version: 5, Full: true}}}, store.ErrCorrupt},
		{"version beyond the count", manifestRecord{Generation: 6, Versions: 3, Entries: []ManifestEntry{{Version: 4, Full: true}}}, store.ErrCorrupt},
		{"versions out of order", manifestRecord{Generation: 6, Versions: 3, Entries: []ManifestEntry{{Version: 2, Delta: true, Gamma: 1, Length: 12}, {Version: 1, Full: true, Length: 12}}}, store.ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := fmt.Sprintf("%+v", m)
			if err := m.apply(tc.rec); !errors.Is(err, tc.want) {
				t.Errorf("err %v, want %v", err, tc.want)
			}
			if after := fmt.Sprintf("%+v", m); after != before {
				t.Errorf("rejected record changed the manifest:\n before %s\n after  %s", before, after)
			}
			// The same record stops a log replay with the same error, after
			// the intact frames before it.
			intact := append(next.frame("t"), rebase.frame("t")...)
			replayed := logBase()
			valid, err := replay(&replayed, append(bytes.Clone(intact), tc.rec.frame("t")...))
			if valid != len(intact) || !errors.Is(err, tc.want) {
				t.Errorf("replay stopped at byte %d with %v, want %d and %v", valid, err, len(intact), tc.want)
			}
		})
	}
}

// fuzzLogSeeds are the shapes FuzzManifestLog starts from: clean records,
// a torn tail, a flipped bit, a forged length, duplicate and descending
// generations, an entry list far larger than the chain, and a record that
// changes a held digest. The same inputs
// are committed under testdata/fuzz/FuzzManifestLog, where whatever the
// fuzzer finds later joins them.
func fuzzLogSeeds() [][]byte {
	rec := func(gen uint64, versions int, entries ...ManifestEntry) []byte {
		return manifestRecord{Generation: gen, Versions: versions, Entries: entries}.frame("t")
	}
	v3 := ManifestEntry{Version: 3, Delta: true, Gamma: 1, Length: 12}
	v4 := ManifestEntry{Version: 4, Full: true, Delta: true, Gamma: 3, Length: 9}
	withDigest := v3
	withDigest.CRC32C = "0000002a"
	clean := bytes.Join([][]byte{rec(4, 3, v3), rec(5, 4, v4), rec(6, 4, ManifestEntry{Version: 3, Delta: true, Gamma: 2, Length: 12, Base: 1})}, nil)
	flipped := bytes.Clone(clean)
	flipped[len(flipped)/2] ^= 0x10
	forged := bytes.Clone(clean)
	forged[12], forged[13] = 0xFF, 0xFF // data length far beyond the buffer
	var many []ManifestEntry
	for v := 1; v <= 300; v++ {
		many = append(many, ManifestEntry{Version: v, Full: true, Length: 12})
	}
	return [][]byte{
		clean,
		clean[:len(clean)-7],
		flipped,
		forged,
		bytes.Join([][]byte{rec(4, 3, v3), rec(4, 3, v3), rec(5, 4, v4)}, nil),
		bytes.Join([][]byte{rec(5, 4, v3, v4), rec(4, 3, v3)}, nil),
		rec(4, 300, many...),
		nil,
		bytes.Join([][]byte{rec(4, 3, withDigest), rec(5, 3, ManifestEntry{Version: 3, Delta: true, Gamma: 1, Length: 12, Base: 1, CRC32C: "0000002b"})}, nil),
	}
}

// FuzzManifestLog feeds arbitrary bytes, as a run of record frames, to the
// decode-and-Apply path that catch-up from the nodes runs, over a fixed base
// manifest. It must never panic; the bytes it accepts must be a prefix that
// replays to the same manifest on its own; a
// rejection must be one of the typed errors; and whatever it builds must
// still number its versions 1..L and never move the generation backwards.
func FuzzManifestLog(f *testing.F) {
	for _, seed := range fuzzLogSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, log []byte) {
		m := logBase()
		valid, err := replay(&m, log)
		if valid < 0 || valid > len(log) {
			t.Fatalf("replay accepted %d of %d bytes", valid, len(log))
		}
		if err != nil && !errors.Is(err, ErrGenerationGap) && !errors.Is(err, ErrImmutable) && !errors.Is(err, store.ErrCorrupt) {
			t.Fatalf("untyped replay error: %v", err)
		}
		if m.Generation < logBase().Generation {
			t.Fatalf("generation moved back to %d", m.Generation)
		}
		for i, e := range m.Entries {
			if e.Version != i+1 {
				t.Fatalf("entry %d carries version %d", i, e.Version)
			}
		}
		again := logBase()
		if v, err := replay(&again, log[:valid]); err != nil || v != valid {
			t.Fatalf("accepted prefix replays to byte %d of %d: %v", v, valid, err)
		}
		if got, want := fmt.Sprintf("%+v", again), fmt.Sprintf("%+v", m); got != want {
			t.Fatalf("accepted prefix replays to a different manifest:\n got %s\nwant %s", got, want)
		}
	})
}
