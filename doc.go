// Package sec is the public API of the SEC (Sparsity Exploiting Coding)
// library: erasure-coded storage of versioned data that encodes the deltas
// between versions and exploits their sparsity to retrieve archives with
// fewer I/O reads, as proposed in "Sparsity Exploiting Erasure Coding for
// Resilient Storage and Efficient I/O Access in Delta based Versioning
// Systems" (Harshan, Oggier, Datta; ICDCS 2015).
//
// # Quick start
//
//	ctx := context.Background() // or a per-request context with a deadline
//	cluster := sec.NewMemCluster(6)
//	archive, err := sec.NewArchive(sec.ArchiveConfig{
//		Scheme:    sec.BasicSEC,
//		Code:      sec.NonSystematicCauchy,
//		N:         6,
//		K:         3,
//		BlockSize: 1024,
//	}, cluster)
//	// commit versions ...
//	info, err := archive.CommitContext(ctx, objectBytes)
//	// ... and read them back with exact I/O accounting:
//	object, stats, err := archive.RetrieveContext(ctx, 2)
//
// Versions whose delta against the previous version is gamma-sparse
// (gamma < k/2 non-zero blocks) are retrieved from only 2*gamma coded
// shards instead of k. See DESIGN.md for the architecture and the mapping
// from the paper's evaluation to the experiments package, and
// OPERATIONS.md for running a real cluster.
//
// # Chain lifecycle: checkpoints and compaction
//
// Delta chains grow with every commit, and with them the cost of reaching
// old versions (Basic SEC) or early versions (Reversed SEC). Two
// ArchiveConfig knobs bound that growth:
//
//   - CheckpointEvery stores (or, for Reversed SEC, retains) a full
//     codeword at least every CheckpointEvery versions, bounding chains
//     proactively at commit time.
//   - MaxChainLength bounds how many delta applications any retrieval may
//     need. A commit that pushes a version past the bound triggers
//     compaction, and Archive.CompactToContext runs the same pass on
//     demand: over-deep versions are rebased onto the full anchor their
//     read starts from with a merged (XOR-composed) delta whose sparsity is
//     recomputed, merged deltas too dense to sparse-read are promoted to
//     full checkpoints, and the manifest is swapped atomically.
//   - Nothing a commit or compaction supersedes (the old tip's full under
//     Reversed SEC, the old deltas of a compaction) is deleted by it: it
//     is queued, and Archive.ReclaimSupersededContext deletes the queue in
//     one batch per node. Call it once the manifest that stops naming
//     those codewords is persisted, and a persisted manifest never names a
//     deleted object; the gateway does so after every publish.
//
// Every version stays retrievable byte-identically through and after a
// compaction; only the stored representation (and the read cost) changes.
//
// # Contexts, deadlines, and cancellation
//
// Every archive operation takes a context first (CommitContext,
// RetrieveContext, RetrieveAllContext, ScrubContext, RepairNodeContext,
// CompactToContext) and there is no context-free spelling:
// the context bounds the whole operation end to end. Against TCP nodes the context deadline becomes the
// wire deadline (when earlier than the per-node operation timeout), and
// cancellation interrupts in-flight RPCs immediately, so a retrieval
// against a stalled node returns when the caller's deadline passes instead
// of waiting out per-operation timeouts link by link along the version
// chain.
//
// # Error taxonomy
//
// Failed operations carry structured provenance: errors.As with a
// *ShardError yields the node ID, shard, and operation that failed - even
// across the TCP transport - while errors.Is classifies the cause
// (ErrNodeDown, ErrShardNotFound, ErrShardCorrupt, context.Canceled,
// context.DeadlineExceeded). Cancellation is deliberately NOT ErrNodeDown:
// a cancelled request says nothing about node health.
//
// # Served archives, the version store, and measuring
//
// cmd/secgw serves many archives from one Gateway to concurrent clients
// of the secclient package (DESIGN.md section 13). NewRepository - the
// paper's SVN/wiki application: named files, numbered revisions - is one
// such client: a commit log over a gateway embedded in the process, one
// gateway archive per tracked path, with Repository.Save holding the
// archive spec and the log while the per-file manifests stay with the
// gateway, replicated on the cluster.
//
// Performance numbers come from one harness, `bash benchmark/run.sh`
// (benchmark/README.md; BENCHMARK.json declares workloads, metrics and
// bounds). cmd/secbench regenerates the paper's tables and figures
// (-run) and runs the slow-node drill (-faults); it times no hot path.
//
// # Enforced invariants
//
// The contracts above are load-bearing, so they are machine-enforced:
// cmd/secvet is a custom analyzer suite (internal/lint) that `go test
// ./...` runs as a `go vet -vettool` over every package, test files
// included. It checks the ctx-first rule, error provenance (%w /
// sentinels), pooled-buffer release, and locks never held across
// blocking calls. Intentional exceptions take a `//lint:allow <analyzer> <reason>`
// directive. DESIGN.md section 11 documents each rule.
package sec
