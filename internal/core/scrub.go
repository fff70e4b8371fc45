package core

import (
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
	// at read time), the shard is not as long as its codeword's width
	// (truncated or grown), or the parity check locates it among the at most (m-k)/2 of
	// the m intact shards that differ from the one codeword nearest them.
	ShardsCorrupt int
	// ShardsUnreachable counts shards on failed nodes (state unknown).
	ShardsUnreachable int
	// ObjectsUndecodable counts stored objects with fewer than k intact
	// shards: present and as long as their codeword's width. Their damage
	// cannot be verified or repaired.
	ObjectsUndecodable int
	// ObjectsUnverified counts stored objects that can be decoded but whose
	// shards no codeword accounts for within the unique-decoding radius of
	// their m intact rows - (m-k)/2 on an MDS code, less on systematic
	// Vandermonde rows of smaller distance: exactly k shards present, more
	// corrupt shards than the radius among them, a search for them that
	// outgrew m-k+1 full decodes, or shards left that do not decode. Scrub
	// writes none of their shards, because a rewrite from a decode it cannot
	// verify could replace healthy shards with corrupt ones.
	ObjectsUnverified int
	// Repaired counts missing or corrupt shards rewritten (only when
	// repair was requested).
	Repaired int
}

// ScrubContext verifies every shard of the archive against the code's
// parity check, detecting both missing and silently corrupted shards, under
// the context's deadline and cancellation (the pass stops at the first object
// whose reads were cancelled, returning the partial report). With repair
// true, damaged shards are rewritten in place. Nodes that are down are
// skipped and reported as unreachable.
//
// The m intact shards of an object (present and of its width) are a
// punctured code of distance m-k+1 (on an MDS code), and Locate names the
// rows that differ from the one codeword within (m-k)/2 of them: a healthy
// object costs one syndrome product. Objects with fewer than k intact shards are counted as
// undecodable, and objects no codeword accounts for as unverified; neither
// gets a shard rewritten.
func (a *Archive) ScrubContext(ctx context.Context, repair bool) (ScrubReport, error) {
	//lint:allow lockheld scrub reads the whole chain; the read lock keeps compaction from moving shards mid-scrub
	a.mu.RLock()
	defer a.mu.RUnlock()
	var report ScrubReport
	err := a.eachStored(ctx, "scrub", func(cw codeword) error {
		return a.scrubObject(ctx, cw, repair, &report)
	})
	return report, err
}

// scrubObject checks one stored object's shards. All n rows are read up
// front, one batch per node, and classified from the per-shard results; a
// shard of the wrong length comes back corrupt (getShards). The damaged rows
// are rewritten from one decode of k rows Locate did not name.
func (a *Archive) scrubObject(ctx context.Context, cw codeword, repair bool, report *ScrubReport) error {
	n := cw.code.N()
	rows, shards := make([]int, 0, n), make([][]byte, 0, n)
	var damaged []int
	results := a.getRows(ctx, cw, allRows(n))
	defer releaseAll(results)
	for row, res := range results {
		switch {
		case res.Err == nil:
			report.ShardsChecked++
			rows = append(rows, row)
			shards = append(shards, res.Data)
		case errors.Is(res.Err, store.ErrCorrupt):
			report.ShardsChecked++
			report.ShardsCorrupt++
			damaged = append(damaged, row)
		case errors.Is(res.Err, store.ErrNotFound):
			report.ShardsChecked++
			report.ShardsMissing++
			damaged = append(damaged, row)
		case errors.Is(res.Err, store.ErrNodeDown) || errors.Is(res.Err, store.ErrClusterTooSmall):
			report.ShardsUnreachable++
		default:
			return fmt.Errorf("core: scrubbing %s#%d: %w", cw.id, row, res.Err)
		}
	}
	k := cw.code.K()
	if len(rows) < k {
		report.ObjectsUndecodable++
		return nil
	}
	silent, err := cw.code.Locate(rows, shards, (len(rows)-k)/2)
	if err != nil {
		// Exactly k shards, or more silent damage than the radius: no
		// codeword is verified, so nothing may be written from one.
		report.ObjectsUnverified++
		return nil
	}
	report.ShardsCorrupt += len(silent)
	if !repair || len(silent)+len(damaged) == 0 {
		return nil
	}
	var trusted []int
	var trustedShards [][]byte
	for i, row := range rows {
		if !slices.Contains(silent, row) {
			trusted = append(trusted, row)
			trustedShards = append(trustedShards, shards[i])
		}
	}
	blocks := erasure.GetBuffers(k, cw.width)
	defer blocks.Release()
	if err := cw.code.DecodeFullInto(trusted, trustedShards, blocks.Blocks); err != nil {
		// No codeword to write from; the pass goes on to the next object.
		report.ObjectsUnverified++
		return nil
	}
	written, err := a.rewriteRows(ctx, cw, blocks.Blocks, append(silent, damaged...))
	report.Repaired += written
	return err
}

// rewriteRows re-encodes a codeword from its k decoded blocks and writes the
// given rows to their nodes in one batch, returning how many were written
// and the first write error. The re-encoded codeword is transient, so it
// lives in pooled buffers.
func (a *Archive) rewriteRows(ctx context.Context, cw codeword, blocks [][]byte, rows []int) (int, error) {
	encoded := erasure.GetBuffers(cw.code.N(), cw.width)
	defer encoded.Release()
	if err := cw.code.EncodeInto(blocks, encoded.Blocks); err != nil {
		return 0, err
	}
	rewrites := make([][]byte, len(rows))
	for i, row := range rows {
		rewrites[i] = encoded.Blocks[row]
	}
	refs := a.rowRefs(cw, rows)
	written := 0
	var firstErr error
	for i, err := range a.cluster.PutBatch(ctx, refs, rewrites) {
		switch {
		case err == nil:
			written++
		case firstErr == nil:
			firstErr = fmt.Errorf("core: rewriting %s#%d on node %d: %w", cw.id, rows[i], refs[i].Node, err)
		}
	}
	return written, firstErr
}
