package loadgen

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/secarchive/sec/internal/store"
)

// checkHistory judges a run's history, archive by archive, against the
// archive's sequential contract - the "latest complete version" notion of
// multi-version coding - and returns one line per violation:
//
//  1. acknowledged commit versions are distinct and follow real-time order
//     (a commit that returned before another was invoked has the lower
//     version);
//  2. every successful read returns the bytes of a commit invoked before
//     the read returned: the commit acknowledged with the version read, or,
//     for a version no commit was acknowledged with, a commit whose outcome
//     is unknown (it failed, but not by a typed rejection); a retrieve-all
//     returns every version of the prefix it asked for, each held to this
//     rule;
//  3. a latest, or a log's length, is never below a version acknowledged
//     before it was invoked;
//  4. the final sweep read every acknowledged version back, and its scrub
//     found the archive whole: no shard missing or damaged and no object
//     it could not verify, so any n - k node losses stay survivable.
func checkHistory(history []event) []string {
	byArch := make(map[int][]event)
	for _, e := range history {
		byArch[e.arch] = append(byArch[e.arch], e)
	}
	var bad []string
	for _, arch := range slices.Sorted(maps.Keys(byArch)) {
		for _, v := range checkArchive(byArch[arch]) {
			bad = append(bad, fmt.Sprintf("%s: %s", archiveName(arch), v))
		}
	}
	return bad
}

func checkArchive(events []event) []string {
	var bad []string
	acked := make(map[int]event)
	var commits []event
	for _, c := range events {
		if c.op != opCommit || c.version == 0 {
			continue
		}
		if prior, dup := acked[c.version]; dup {
			bad = append(bad, fmt.Sprintf("v%d acknowledged to client %d and to client %d", c.version, prior.client, c.client))
			continue
		}
		acked[c.version] = c
		commits = append(commits, c)
	}
	for _, a := range commits {
		for _, b := range commits {
			if a.end.Before(b.start) && a.version > b.version {
				bad = append(bad, fmt.Sprintf("v%d returned before v%d was invoked", a.version, b.version))
			}
		}
	}
	// wrote reports whether a commit invoked before r returned wrote r's
	// bytes under the version r read.
	wrote := func(r event) bool {
		if c, ok := acked[r.version]; ok {
			return c.hash == r.hash && c.start.Before(r.end)
		}
		return slices.ContainsFunc(events, func(c event) bool {
			unknown := c.op == opCommit && c.version == 0 && c.err != nil &&
				!errors.Is(c.err, store.ErrBusy) && !errors.Is(c.err, store.ErrConflict)
			return unknown && c.hash == r.hash && c.start.Before(r.end)
		})
	}
	swept, scrubbed := make(map[int]bool), false
	for _, r := range events {
		if r.err != nil {
			continue
		}
		if (r.op == opRetrieve || r.op == opLatest) && !wrote(r) {
			bad = append(bad, fmt.Sprintf("client %d's %s of v%d returned bytes %#x no commit invoked before it wrote", r.client, opNames[r.op], r.version, r.hash))
		}
		if r.op == opRetrieveAll {
			if len(r.hashes) != r.version {
				bad = append(bad, fmt.Sprintf("client %d's %s through v%d returned %d versions", r.client, opNames[r.op], r.version, len(r.hashes)))
			}
			for j, h := range r.hashes {
				if v := (event{version: j + 1, hash: h, end: r.end}); !wrote(v) {
					bad = append(bad, fmt.Sprintf("client %d's %s through v%d returned bytes %#x for v%d no commit invoked before it wrote", r.client, opNames[r.op], r.version, h, v.version))
				}
			}
		}
		if r.op == opLatest || r.op == opLog {
			for _, c := range commits {
				if c.end.Before(r.start) && c.version > r.version {
					bad = append(bad, fmt.Sprintf("client %d's %s saw v%d after v%d was acknowledged", r.client, opNames[r.op], r.version, c.version))
					break
				}
			}
		}
		switch {
		case r.client != sweepClient:
		case r.op == opRetrieve:
			swept[r.version] = true
		case r.op == opScrub:
			scrubbed = true
			if r.version != 0 {
				bad = append(bad, fmt.Sprintf("the final sweep's scrub found %d shards or objects damaged or unverified", r.version))
			}
		}
	}
	for _, c := range commits {
		if !swept[c.version] {
			bad = append(bad, fmt.Sprintf("v%d acknowledged but not read back by the final sweep", c.version))
		}
	}
	if !scrubbed {
		bad = append(bad, "not scrubbed by the final sweep")
	}
	return bad
}

var errLost = errors.New("connection lost")

// TestCheckHistory holds the checker to hand-written histories of archive
// 0: one that is legal although it reads a commit whose outcome is
// unknown, and one per rule that breaks it.
func TestCheckHistory(t *testing.T) {
	// ev is an event invoked at tick start and returned at tick end.
	ev := func(client int, o op, version int, hash uint64, start, end int, err error) event {
		t0 := time.Unix(0, 0)
		return event{client: client, op: o, version: version, hash: hash,
			start: t0.Add(time.Duration(start)), end: t0.Add(time.Duration(end)), err: err}
	}
	// all is a successful retrieve-all through version that returned
	// versions with these hashes.
	all := func(client, version int, start, end int, hashes ...uint64) event {
		e := ev(client, opRetrieveAll, version, 0, start, end, nil)
		e.hashes = hashes
		return e
	}
	// Every history starts from a seeded v1 that the sweep reads back, and
	// ends with the sweep's scrub finding nothing damaged.
	base := func(rest ...event) []event {
		return append(append([]event{
			ev(setupClient, opCommit, 1, 0xa1, 0, 1, nil),
			ev(sweepClient, opRetrieve, 1, 0xa1, 900, 901, nil),
		}, rest...), ev(sweepClient, opScrub, 0, 0, 990, 991, nil))
	}
	for _, tc := range []struct {
		name    string
		history []event
		want    string // the one violation expected; "" for a legal history
	}{
		{"legal, an unknown commit read", base(
			ev(0, opCommit, 0, 0xb2, 10, 20, errLost),
			ev(1, opRetrieve, 2, 0xb2, 15, 25, nil),
			ev(1, opLatest, 2, 0xb2, 30, 31, nil),
			ev(1, opLog, 2, 0, 32, 33, nil),
			ev(2, opRetrieve, 1, 0xa1, 12, 14, nil),
			all(2, 2, 16, 26, 0xa1, 0xb2),
		), ""},
		{"versions not distinct", base(
			ev(0, opCommit, 1, 0xb2, 10, 20, nil),
		), "v1 acknowledged to client -1 and to client 0"},
		{"versions against real time", base(
			ev(0, opCommit, 3, 0xb2, 10, 20, nil),
			ev(1, opCommit, 2, 0xc3, 30, 40, nil),
			ev(sweepClient, opRetrieve, 2, 0xc3, 902, 903, nil),
			ev(sweepClient, opRetrieve, 3, 0xb2, 904, 905, nil),
		), "v3 returned before v2 was invoked"},
		{"read of bytes nobody wrote", base(
			ev(1, opRetrieve, 1, 0xdead, 10, 20, nil),
		), "client 1's retrieve of v1 returned bytes 0xdead"},
		{"retrieve-all of bytes nobody wrote", base(
			ev(0, opCommit, 2, 0xb2, 10, 20, nil),
			all(1, 2, 30, 40, 0xa1, 0xdead),
			ev(sweepClient, opRetrieve, 2, 0xb2, 902, 903, nil),
		), "client 1's retrieve-all through v2 returned bytes 0xdead for v2"},
		{"retrieve-all short of its prefix", base(
			ev(0, opCommit, 2, 0xb2, 10, 20, nil),
			all(1, 2, 30, 40, 0xa1),
			ev(sweepClient, opRetrieve, 2, 0xb2, 902, 903, nil),
		), "client 1's retrieve-all through v2 returned 1 versions"},
		{"read of a commit invoked after it returned", base(
			ev(1, opRetrieve, 2, 0xb2, 10, 20, nil),
			ev(0, opCommit, 2, 0xb2, 30, 40, nil),
			ev(sweepClient, opRetrieve, 2, 0xb2, 902, 903, nil),
		), "client 1's retrieve of v2 returned bytes 0xb2"},
		{"read of a commit refused busy", base(
			ev(0, opCommit, 0, 0xb2, 10, 20, store.ErrBusy),
			ev(1, opLatest, 2, 0xb2, 15, 25, nil),
		), "client 1's latest of v2 returned bytes 0xb2"},
		{"stale latest", base(
			ev(0, opCommit, 2, 0xb2, 10, 20, nil),
			ev(1, opLatest, 1, 0xa1, 30, 40, nil),
			ev(sweepClient, opRetrieve, 2, 0xb2, 902, 903, nil),
		), "client 1's latest saw v1 after v2 was acknowledged"},
		{"short log", base(
			ev(0, opCommit, 2, 0xb2, 10, 20, nil),
			ev(1, opLog, 1, 0, 30, 40, nil),
			ev(sweepClient, opRetrieve, 2, 0xb2, 902, 903, nil),
		), "client 1's log saw v1 after v2 was acknowledged"},
		{"acknowledged version not swept", base(
			ev(0, opCommit, 2, 0xb2, 10, 20, nil),
			ev(sweepClient, opRetrieve, 2, 0xb2, 902, 903, errLost),
		), "v2 acknowledged but not read back by the final sweep"},
		{"damage left after the windows", base(
			ev(0, opScrub, 1, 0, 10, 20, nil), // damage found under chaos is no violation
			ev(sweepClient, opScrub, 2, 0, 980, 985, nil),
		), "the final sweep's scrub found 2 shards or objects damaged"},
		{"archive not scrubbed", base()[:2], "not scrubbed by the final sweep"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := checkHistory(tc.history)
			switch {
			case tc.want == "" && len(bad) != 0:
				t.Errorf("legal history judged %q", bad)
			case tc.want != "" && (len(bad) != 1 || !strings.Contains(bad[0], tc.want)):
				t.Errorf("violations %q, want exactly one naming %q", bad, tc.want)
			}
		})
	}
}
