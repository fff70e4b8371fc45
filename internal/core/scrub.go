package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// ScrubReport summarizes an integrity pass over the archive's shards.
type ScrubReport struct {
	// ShardsChecked counts shards whose nodes were reachable.
	ShardsChecked int
	// ShardsMissing counts shards absent from their node.
	ShardsMissing int
	// ShardsCorrupt counts shards found damaged: the node itself failed
	// the read with store.ErrCorrupt (checksum or header damage detected
	// at read time), the shard is not BlockSize bytes long (truncated or
	// grown), or its contents disagree with the codeword re-encoded from k
	// healthy shards.
	ShardsCorrupt int
	// ShardsUnreachable counts shards on failed nodes (state unknown).
	ShardsUnreachable int
	// ObjectsUndecodable counts stored objects with fewer than k intact
	// shards: present and BlockSize bytes long. Their damage cannot be
	// verified or repaired.
	ObjectsUndecodable int
	// ObjectsUnverified counts stored objects that can be decoded but whose
	// shards no decode accounts for within the code's unique-decoding
	// radius: exactly k shards present, or more corrupt shards than the
	// radius among them. Scrub writes none of their shards, because a
	// rewrite from a decode it cannot verify could replace healthy shards
	// with corrupt ones.
	ObjectsUnverified int
	// Repaired counts missing or corrupt shards rewritten (only when
	// repair was requested).
	Repaired int
}

// ScrubContext verifies every shard of the archive against the codeword
// re-encoded from the object's surviving shards, detecting both missing
// and silently corrupted shards, under the context's deadline and
// cancellation (the pass stops at the first object whose reads were
// cancelled, returning the partial report). With repair true, damaged
// shards are rewritten in place. Nodes that are down are skipped and
// reported as unreachable.
//
// Decoding is consistency-checked: for each candidate decode from k shards,
// the re-encoded codeword must reproduce all but at most (m-k)/2 of the m
// shards read (referenceCodeword). Objects with fewer than k intact shards
// (present and BlockSize bytes long) are counted as undecodable, and
// objects no candidate accounts for as unverified; neither gets a shard
// rewritten.
func (a *Archive) ScrubContext(ctx context.Context, repair bool) (ScrubReport, error) {
	//lint:allow lockheld scrub reads the whole chain; the read lock keeps compaction from moving shards mid-scrub
	a.mu.RLock()
	defer a.mu.RUnlock()
	var report ScrubReport
	err := a.eachStored(ctx, "scrub", func(cw codeword) error {
		return a.scrubObject(ctx, cw, repair, &report)
	})
	if repair && report.Repaired > 0 {
		a.invalidateReadCache()
	}
	return report, err
}

// scrubObject checks one stored object's shards. All n rows are read up
// front, one batch per node, and classified from the per-shard results; a
// shard of the wrong length comes back corrupt (getShards).
func (a *Archive) scrubObject(ctx context.Context, cw codeword, repair bool, report *ScrubReport) error {
	present := make(map[int][]byte, cw.code.N())
	var missing, corrupt []int
	results := a.getShards(ctx, a.rowRefs(cw, allRows(cw.code.N())))
	defer releaseAll(results)
	for row, res := range results {
		switch {
		case res.Err == nil:
			report.ShardsChecked++
			present[row] = res.Data
		case errors.Is(res.Err, store.ErrCorrupt):
			report.ShardsChecked++
			report.ShardsCorrupt++
			corrupt = append(corrupt, row)
		case errors.Is(res.Err, store.ErrNotFound):
			report.ShardsChecked++
			report.ShardsMissing++
			missing = append(missing, row)
		case errors.Is(res.Err, store.ErrNodeDown) || errors.Is(res.Err, store.ErrClusterTooSmall):
			report.ShardsUnreachable++
		default:
			return fmt.Errorf("core: scrubbing %s#%d: %w", cw.id, row, res.Err)
		}
	}
	if len(present) < cw.code.K() {
		report.ObjectsUndecodable++
		return nil
	}
	reference, ok := a.referenceCodeword(cw.code, present)
	if !ok {
		report.ObjectsUnverified++
		return nil
	}
	var damaged []int
	for row, data := range present {
		if !bytes.Equal(data, reference[row]) {
			report.ShardsCorrupt++
			damaged = append(damaged, row)
		}
	}
	damaged = append(damaged, corrupt...)
	damaged = append(damaged, missing...)
	if !repair || len(damaged) == 0 {
		return nil
	}
	rewrites := make([][]byte, len(damaged))
	for i, row := range damaged {
		rewrites[i] = reference[row]
	}
	var firstErr error
	for i, err := range a.cluster.PutBatch(ctx, a.rowRefs(cw, damaged), rewrites) {
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("core: rewriting %s#%d: %w", cw.id, damaged[i], err)
			}
			continue
		}
		report.Repaired++
	}
	return firstErr
}

// referenceCodeword finds a decode of the object that accounts for the m
// present shards within the unique-decoding radius, and returns its full
// re-encoded codeword. The m present rows are a punctured MDS code of length
// m and distance m-k+1, so a candidate is trusted only when m > k and it
// disagrees with at most (m-k)/2 of them. The true codeword then disagrees
// with the e corrupt rows alone, and any other codeword with at least
// m-k+1-e rows, more than the radius: a decode through a corrupt row can
// never be accepted, however many rows its own window makes agree. With e
// beyond the radius no candidate may pass, and the caller writes nothing.
func (a *Archive) referenceCodeword(code codec, present map[int][]byte) ([][]byte, bool) {
	k, m := code.K(), len(present)
	if m <= k {
		return nil, false
	}
	radius := (m - k) / 2
	rows := make([]int, 0, len(present))
	for row := range present {
		rows = append(rows, row)
	}
	slices.Sort(rows)
	// Candidate decodes: sliding windows of k rows. A window that avoids
	// every corrupt shard decodes the true codeword; each candidate is
	// validated against all present shards. Candidate decodes are
	// transient, so they run in pooled buffers; only the accepted
	// reference codeword is allocated (it is returned to the caller).
	shards := make([][]byte, k)
	for start := 0; start+k <= len(rows); start++ {
		window := rows[start : start+k]
		for i, row := range window {
			shards[i] = present[row]
		}
		blocks := erasure.GetBuffers(k, len(shards[0]))
		candidate := erasure.GetBuffers(code.N(), len(shards[0]))
		err := code.DecodeFullInto(window, shards, blocks.Blocks)
		if err == nil {
			err = code.EncodeInto(blocks.Blocks, candidate.Blocks)
		}
		blocks.Release()
		if err != nil {
			candidate.Release()
			continue
		}
		agree := 0
		for row, data := range present {
			if bytes.Equal(data, candidate.Blocks[row]) {
				agree++
			}
		}
		if m-agree <= radius {
			reference := make([][]byte, len(candidate.Blocks))
			for i, b := range candidate.Blocks {
				reference[i] = append([]byte(nil), b...)
			}
			candidate.Release()
			return reference, true
		}
		candidate.Release()
	}
	return nil, false
}
