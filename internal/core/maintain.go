package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"

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
	// shards no codeword accounts for within the unique-decoding radius
	// (m-k)/2 of their m intact rows: exactly k shards present, more
	// corrupt shards than the radius among them, a search for them that
	// outgrew m-k+1 full decodes, or shards left that do not decode. Scrub
	// writes none of their shards, because a rewrite from a decode it cannot
	// verify could replace healthy shards with corrupt ones.
	ObjectsUnverified int
	// Repaired counts missing or corrupt shards rewritten (only when
	// repair was requested).
	Repaired int
}

// RepairReport summarizes a node repair pass.
type RepairReport struct {
	// ShardsChecked counts the shards of this archive the node is
	// supposed to hold.
	ShardsChecked int
	// ShardsHealthy counts shards found intact: present, readable and as
	// long as their codeword's width.
	ShardsHealthy int
	// ShardsRepaired counts shards reconstructed from surviving nodes
	// and rewritten.
	ShardsRepaired int
	// NodeReads counts shard reads performed on other nodes to
	// reconstruct the missing ones (the repair traffic).
	NodeReads int
}

// ScrubContext verifies every shard of the archive against the code's
// parity check, detecting both missing and silently corrupted shards, under
// the context's deadline and cancellation (the pass stops at the first object
// whose reads were cancelled, returning the partial report). With repair
// true, damaged shards are rewritten in place. Shards on nodes that a
// reader's probe round finds down are not read but reported unreachable.
//
// The m intact shards of an object (present and of its width) are a
// punctured code of distance m-k+1, and Locate names the rows that differ
// from the one codeword within (m-k)/2 of them: a healthy object costs one
// syndrome product. Objects with fewer than k intact shards are counted as
// undecodable, and objects no codeword accounts for as unverified; neither
// gets a shard rewritten.
func (a *Archive) ScrubContext(ctx context.Context, repair bool) (ScrubReport, error) {
	m := maintenance{node: -1, write: repair}
	err := a.maintain(ctx, "scrub", &m)
	return m.ScrubReport, err
}

// RepairNodeContext reconstructs every shard of this archive that the
// given cluster node should hold but does not — the maintenance operation
// run after replacing a failed device — under the context's deadline and
// cancellation (the pass stops at the first cancelled read, returning the
// partial report). Missing, corrupt and wrong-length shards are rebuilt by
// decoding the affected object from k surviving shards and re-encoding; the
// node must be available to receive the rebuilt shards. Damage on other
// nodes is tolerated per shard: reconstruction reads the sources as every
// reader does, drawing on any k intact surviving shards, not just the first
// k live nodes.
//
// The paper's static-resilience analysis assumes "no further remedial
// actions"; RepairNodeContext is the remedial action that restores the
// archive to full redundancy afterwards. A replaced device lost its copies
// of the manifest objects as well, so once the repair succeeds the next
// publish folds, which puts the snapshot back on its n-k+1 nodes.
func (a *Archive) RepairNodeContext(ctx context.Context, node int) (RepairReport, error) {
	// An index outside the cluster is the caller's mistake, not a down node:
	// refuse it before the probe, whose false would read as transient.
	if _, err := a.cluster.Node(node); err != nil {
		return RepairReport{}, fmt.Errorf("core: repairing node %d: %w", node, err)
	}
	if !a.cluster.Available(ctx, node) {
		return RepairReport{}, fmt.Errorf("core: repairing node %d: %w", node, cmp.Or(ctx.Err(), store.ErrNodeDown))
	}
	m := maintenance{node: node, write: true}
	err := a.maintain(ctx, "repair", &m)
	if err == nil {
		a.pub.refold.Store(true)
	}
	return RepairReport{
		ShardsChecked:  m.ShardsChecked,
		ShardsHealthy:  m.ShardsChecked - m.ShardsMissing - m.ShardsCorrupt,
		ShardsRepaired: m.Repaired,
		NodeReads:      m.reads,
	}, err
}

// maintenance is one walk: which rows of each codeword it inspects, whether
// it rewrites the damaged ones, and what it found. A scrub (node -1)
// inspects every row and judges the intact ones with the code's parity
// check; a repair inspects the rows its node holds, which must be reachable.
type maintenance struct {
	node  int
	write bool
	ScrubReport
	reads int // rows read from other nodes to rebuild (RepairReport.NodeReads)
}

// maintain takes a walk through every stored codeword under the read lock.
func (a *Archive) maintain(ctx context.Context, pass string, m *maintenance) error {
	//lint:allow lockheld a maintenance walk reads the whole chain; the read lock keeps compaction from moving shards mid-walk
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.eachStored(ctx, pass, func(cw codeword) error {
		return a.maintainCodeword(ctx, cw, m)
	})
}

// maintainCodeword is one codeword's turn in a walk. The rows the walk
// inspects are read from the nodes a probe round finds up, as a reader's are
// (Cluster.Probe), so a node that died unannounced costs the retry rule once
// per walk, not once per codeword. A row on a node found down is sent no
// batch: a scrub counts it unreachable, and a repair, which must write it,
// fails. The rows read are filed in a shard set, the missing, corrupt and
// wrong-length ones (getShards) dead, and a scrub's Locate names the
// silently wrong rows among the rest, which die too. The damaged rows are
// rewritten from the full decode every reader makes (readAnyK): a scrub's
// set holds its k rows already, and a repair reads them from the other
// nodes.
func (a *Archive) maintainCodeword(ctx context.Context, cw codeword, m *maintenance) error {
	nodes := make([]int, 0, cw.code.N())
	for row := range cw.code.N() {
		if node := a.nodeOf(cw, row); m.node < 0 || node == m.node {
			nodes = append(nodes, node)
		}
	}
	up := a.rowsOnLiveNodes(a.cluster.Probe(ctx, nodes), cw, nil)
	if m.node >= 0 && len(up) < len(nodes) {
		return fmt.Errorf("core: repairing node %d: %w", m.node, store.ErrNodeDown)
	}
	m.ShardsUnreachable += len(nodes) - len(up)
	set := newShardSet()
	defer set.release()
	var damaged []int
	var failed error
	for i, res := range a.getRows(ctx, cw, up) {
		set.record(cw.id, up[i], res)
		switch {
		case res.Err == nil:
			m.ShardsChecked++
		case rowLost(res.Err):
			m.ShardsChecked++
			damaged = append(damaged, up[i])
			if errors.Is(res.Err, store.ErrCorrupt) {
				m.ShardsCorrupt++
			} else {
				m.ShardsMissing++
			}
		case m.node < 0 && errors.Is(res.Err, store.ErrNodeDown):
			m.ShardsUnreachable++
		case failed == nil:
			failed = fmt.Errorf("core: inspecting %s#%d: %w", cw.id, up[i], res.Err)
		}
	}
	if failed != nil {
		return failed
	}
	k := cw.code.K()
	if m.node < 0 {
		rows, shards := set.take()
		if len(rows) < k {
			m.ObjectsUndecodable++
			return nil
		}
		silent, err := cw.code.Locate(rows, shards, (len(rows)-k)/2)
		if err != nil {
			// Exactly k shards, or more silent damage than the radius: no
			// codeword is verified, so nothing may be written from one.
			m.ObjectsUnverified++
			return nil
		}
		m.ShardsCorrupt += len(silent)
		for _, row := range silent {
			delete(set.data, row)
			set.dead[row] = true
		}
		damaged = append(damaged, silent...)
	}
	if !m.write || len(damaged) == 0 {
		return nil
	}
	var held loan
	defer held.release()
	reads := set.reads
	blocks, err := a.readAnyK(ctx, cw, set, &held)
	m.reads += set.reads - reads
	switch {
	case err == nil:
	case m.node < 0 && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded):
		// A scrub's k rows were in hand, so their decode failed: there is
		// no codeword to write from, and the walk goes on.
		m.ObjectsUnverified++
		return nil
	default:
		return fmt.Errorf("core: rebuilding %s: %w", cw.id, err)
	}
	written, err := a.rewriteRows(ctx, cw, blocks, damaged)
	m.Repaired += written
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
