package transport

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/store"
)

// Archive-level operation codes: one RPC per whole-archive operation,
// served by a gateway (internal/gateway) instead of a storage node. Added
// after opDeleteBatch; new codes must keep appending so wire values stay
// stable across versions.
const (
	opArchCreate byte = iota + 10
	opArchCommit
	opArchGet
	opArchGetAll
	opArchLog
	opArchInfo
	opArchCompact
	opArchScrub
	opArchRepair
	// opTraced wraps an archive op of a traced request (see "Trace ids" in
	// protocol.go). A gateway that predates it answers "unknown op".
	opTraced
)

// ErrNotServed reports that the peer answered an archive-level op with a
// plain statusError, which is what a legacy peer (a storage node, or a
// gateway predating these ops) does for any op code it does not know.
var ErrNotServed = errors.New("transport: peer does not serve archive ops")

// ArchiveBackend is the archive-level service contract: everything a
// gateway offers a client, expressed over whole archives instead of
// shards. The transport serves any implementation (Server +
// WithArchiveBackend) and provides one over the wire (ArchiveClient), so
// an embedded gateway and a remote one are interchangeable behind this
// interface.
//
// The version argument of Retrieve and RetrieveAll selects a version
// number starting at 1; 0 selects the latest version at request time.
// Commit's expect argument is an optimistic precondition: the commit
// applies only if the archive currently has exactly expect versions
// (a store.ErrConflict-wrapping error otherwise); expect < 0 skips the
// check.
type ArchiveBackend interface {
	Create(ctx context.Context, name string, spec ArchiveSpec) (ArchiveInfo, error)
	Commit(ctx context.Context, name string, expect int, object []byte) (core.CommitInfo, error)
	Retrieve(ctx context.Context, name string, version int) (ArchiveVersion, error)
	RetrieveAll(ctx context.Context, name string, version int) ([][]byte, core.RetrievalStats, error)
	Log(ctx context.Context, name string) ([]ArchiveLogEntry, error)
	Info(ctx context.Context, name string) (ArchiveInfo, error)
	Compact(ctx context.Context, name string, maxChain int) (CompactReport, error)
	Scrub(ctx context.Context, name string, repair bool) (core.ScrubReport, error)
	Repair(ctx context.Context, name string, node int) (core.RepairReport, error)
}

// ArchiveSpec describes the configuration of an archive to create: the
// create payload is the head of the manifest it starts.
type ArchiveSpec = core.Spec

// ArchiveVersion is one retrieved version with its retrieval accounting.
type ArchiveVersion struct {
	// Version is the version number actually served (the latest at
	// request time when the request asked for 0).
	Version int `json:"version"`
	// Data is the decoded object. ArchiveClient always fills it.
	Data []byte `json:"-"`
	// Parts is the decoded object as the slices it is made of, in order,
	// when Data is nil: the gateway hands out its decoded blocks this way
	// (core.Archive.RetrievePartsContext), read-only, and the server writes
	// them into the reply from where they lie.
	Parts [][]byte `json:"-"`
	// Release, when not nil, gives back the memory Parts is lent from. The
	// holder calls it exactly once, when nothing reads Parts any more: the
	// server once the reply is written or has failed to write. A backend
	// that lends nothing leaves it nil.
	Release func() `json:"-"`
	// Stats is the archive-side retrieval accounting for this read.
	Stats core.RetrievalStats `json:"stats"`
}

// object is the decoded object as the parts a reply carries.
func (v ArchiveVersion) object() parts {
	if v.Data == nil {
		return v.Parts
	}
	return parts{v.Data}
}

// ArchiveLogEntry describes one version in an archive's history, combining
// the manifest entry with the chain shape retrieval would traverse.
type ArchiveLogEntry struct {
	core.ManifestEntry
	// ChainDepth counts the delta applications of the walk a read of this
	// version takes, the depth MaxChainLength bounds; PlannedReads counts
	// the node reads that walk costs (paper formulas (3)/(4) generalized
	// over the compacted chain).
	ChainDepth   int `json:"chain_depth"`
	PlannedReads int `json:"planned_reads"`
}

// ArchiveNodeStatus pairs a cluster node's health snapshot with a
// liveness probe taken at Info time.
type ArchiveNodeStatus struct {
	Health store.NodeHealth `json:"health"`
	Up     bool             `json:"up"`
}

// ArchiveInfo is the gateway's description of one archive and the cluster
// behind it.
type ArchiveInfo struct {
	Manifest core.Manifest `json:"manifest"`
	// Versions is the number of committed versions; Capacity the object
	// byte capacity (k*blockSize).
	Versions int `json:"versions"`
	Capacity int `json:"capacity"`
	// Cache reports the shared decoded-version read cache, nil when the
	// archive has no cache budget.
	Cache *core.CacheStats `json:"cache,omitempty"`
	// QueuedWriters is the number of writers currently admitted or
	// waiting on this archive's commit queue.
	QueuedWriters int `json:"queued_writers"`
	// Nodes is the per-node health and probe snapshot.
	Nodes []ArchiveNodeStatus `json:"nodes,omitempty"`
}

// CompactReport is the result of a gateway-driven compaction pass,
// including the crash-safe reclaim that follows the manifest persist.
type CompactReport struct {
	Info core.CompactionInfo `json:"info"`
	// Deleted and Orphans count superseded shards reclaimed after the
	// new manifest was persisted, and those left behind on down nodes.
	Deleted int `json:"deleted"`
	Orphans int `json:"orphans"`
}

// errArchMalformed reports an archive-op payload that does not parse.
var errArchMalformed = errors.New("transport: malformed archive payload")

// encodeArchCommit frames a commit request payload: u32(expect+1)
// followed by the object bytes. expect < 0 (no precondition) travels as 0.
// Whether the commit fits a frame is roundTrip's check, where the archive
// name is counted too.
func encodeArchCommit(expect int, object []byte) (parts, error) {
	if expect < -1 {
		return nil, fmt.Errorf("transport: invalid expected version %d", expect)
	}
	if expect >= 1<<31 {
		return nil, fmt.Errorf("transport: expected version %d overflows the wire", expect)
	}
	return parts{binary.BigEndian.AppendUint32(nil, uint32(expect+1)), object}, nil
}

// decodeArchCommit parses a commit request payload.
func decodeArchCommit(payload []byte) (expect int, object []byte, err error) {
	if len(payload) < 4 {
		return 0, nil, errArchMalformed
	}
	expect = int(binary.BigEndian.Uint32(payload)) - 1
	return expect, payload[4:], nil
}

// archVersionMeta is the JSON chunk preceding the raw object bytes in a
// retrieve response.
type archVersionMeta struct {
	Version int                 `json:"version"`
	Stats   core.RetrievalStats `json:"stats"`
}

// encodeArchVersion frames a retrieve response: u32(len(meta)) metaJSON
// followed by the raw object bytes (which stream across statusPartial
// continuation frames when they outgrow one frame).
func encodeArchVersion(v ArchiveVersion) (parts, error) {
	meta, err := json.Marshal(archVersionMeta{Version: v.Version, Stats: v.Stats})
	if err != nil {
		return nil, fmt.Errorf("transport: encoding version meta: %w", err)
	}
	return append(parts{binary.BigEndian.AppendUint32(nil, uint32(len(meta))), meta}, v.object()...), nil
}

// decodeArchVersion parses a retrieve response.
func decodeArchVersion(payload []byte) (ArchiveVersion, error) {
	meta, rest, err := readChunk(payload)
	if err != nil {
		return ArchiveVersion{}, errArchMalformed
	}
	var m archVersionMeta
	if err := json.Unmarshal(meta, &m); err != nil {
		return ArchiveVersion{}, fmt.Errorf("transport: decoding version meta: %w", err)
	}
	return ArchiveVersion{Version: m.Version, Data: rest, Stats: m.Stats}, nil
}

// encodeArchVersions frames a retrieve-all response: u32(len(meta))
// metaJSON u32(count) then count (u32(len) bytes) chunks, versions 1..count
// in order.
func encodeArchVersions(versions [][]byte, stats core.RetrievalStats) (parts, error) {
	meta, err := json.Marshal(archVersionMeta{Version: len(versions), Stats: stats})
	if err != nil {
		return nil, fmt.Errorf("transport: encoding version meta: %w", err)
	}
	s := splicer{buf: binary.BigEndian.AppendUint32(make([]byte, 0, 4+4+4*len(versions)), uint32(len(meta)))}
	s.splice(meta)
	s.buf = binary.BigEndian.AppendUint32(s.buf, uint32(len(versions)))
	for _, v := range versions {
		s.buf = binary.BigEndian.AppendUint32(s.buf, uint32(len(v)))
		s.splice(v)
	}
	return s.parts(), nil
}

// decodeArchVersions parses a retrieve-all response.
func decodeArchVersions(payload []byte) ([][]byte, core.RetrievalStats, error) {
	meta, rest, err := readChunk(payload)
	if err != nil {
		return nil, core.RetrievalStats{}, errArchMalformed
	}
	var m archVersionMeta
	if err := json.Unmarshal(meta, &m); err != nil {
		return nil, core.RetrievalStats{}, fmt.Errorf("transport: decoding version meta: %w", err)
	}
	count, rest, err := readBatchCount(rest, 4)
	if err != nil {
		return nil, core.RetrievalStats{}, errArchMalformed
	}
	versions := make([][]byte, count)
	for i := range versions {
		versions[i], rest, err = readChunk(rest)
		if err != nil {
			return nil, core.RetrievalStats{}, errArchMalformed
		}
	}
	if len(rest) != 0 {
		return nil, core.RetrievalStats{}, errArchMalformed
	}
	return versions, m.Stats, nil
}

// archOp describes one archive-level operation once; the server's dispatch
// and counting and the client's error provenance are derived from it.
type archOp struct {
	// name is the ShardError.Op of the operation's failures, on both ends.
	name string
	// once marks an operation that changes the archive: a client sends it
	// at most once (replayable), so a reply lost on its way back cannot
	// have the gateway apply it twice.
	once bool
	// serve answers one request for the named archive with the response
	// body, and the release of any memory the body is lent from, which the
	// server calls once the reply is written or has failed to write. An
	// archReject error is answered as a bare statusError; any other is a
	// backend failure, answered with its provenance.
	serve func(ctx context.Context, s *Server, name string, req request) (parts, func(), error)
}

// archReject is a request refused (or a reply lost) at the wire layer,
// outside the backend: it is answered as a plain statusError message with
// no provenance record, the form every peer understands.
type archReject string

func (e archReject) Error() string { return string(e) }

// archOps is the op table, indexed by op code minus opArchCreate. The
// server counts each op's requests in requestCounters.archOp.
var archOps = [...]archOp{
	opArchCreate - opArchCreate: {
		name: "arch-create",
		once: true,
		serve: func(ctx context.Context, s *Server, name string, req request) (parts, func(), error) {
			var spec ArchiveSpec
			if err := json.Unmarshal(req.payload, &spec); err != nil {
				return nil, nil, archReject(fmt.Sprintf("transport: decoding archive spec: %v", err))
			}
			return jsonBody(s.archive.Create(ctx, name, spec))
		},
	},
	opArchCommit - opArchCreate: {
		name: "arch-commit",
		once: true,
		serve: func(ctx context.Context, s *Server, name string, req request) (parts, func(), error) {
			expect, object, err := decodeArchCommit(req.payload)
			if err != nil {
				return nil, nil, archReject(err.Error())
			}
			s.reqs.bytesWritten.Add(uint64(len(object)))
			return jsonBody(s.archive.Commit(ctx, name, expect, object))
		},
	},
	opArchGet - opArchCreate: {
		name: "arch-get",
		serve: func(ctx context.Context, s *Server, name string, req request) (parts, func(), error) {
			v, err := s.archive.Retrieve(ctx, name, req.id.Row)
			if err != nil {
				return nil, nil, err
			}
			s.reqs.bytesRead.Add(uint64(v.object().size()))
			body, err := encodeArchVersion(v)
			return body, v.Release, err
		},
	},
	opArchGetAll - opArchCreate: {
		name: "arch-get-all",
		serve: func(ctx context.Context, s *Server, name string, req request) (parts, func(), error) {
			versions, stats, err := s.archive.RetrieveAll(ctx, name, req.id.Row)
			if err != nil {
				return nil, nil, err
			}
			for _, v := range versions {
				s.reqs.bytesRead.Add(uint64(len(v)))
			}
			body, err := encodeArchVersions(versions, stats)
			return body, nil, err
		},
	},
	opArchLog - opArchCreate: {
		name: "arch-log",
		serve: func(ctx context.Context, s *Server, name string, _ request) (parts, func(), error) {
			return jsonBody(s.archive.Log(ctx, name))
		},
	},
	opArchInfo - opArchCreate: {
		name: "arch-info",
		serve: func(ctx context.Context, s *Server, name string, _ request) (parts, func(), error) {
			return jsonBody(s.archive.Info(ctx, name))
		},
	},
	opArchCompact - opArchCreate: {
		name: "arch-compact",
		once: true,
		serve: func(ctx context.Context, s *Server, name string, req request) (parts, func(), error) {
			return jsonBody(s.archive.Compact(ctx, name, req.id.Row))
		},
	},
	opArchScrub - opArchCreate: {
		name: "arch-scrub",
		once: true,
		serve: func(ctx context.Context, s *Server, name string, req request) (parts, func(), error) {
			return jsonBody(s.archive.Scrub(ctx, name, req.id.Row != 0))
		},
	},
	opArchRepair - opArchCreate: {
		name: "arch-repair",
		once: true,
		serve: func(ctx context.Context, s *Server, name string, req request) (parts, func(), error) {
			return jsonBody(s.archive.Repair(ctx, name, req.id.Row))
		},
	},
}

// replayable reports whether a request of op may be sent again when its
// reply did not arrive: every node op (get, put and delete batches, pings,
// stats) and every archive op that only reads - not create, commit,
// compact, scrub or repair (archOp.once), which the gateway may have applied
// already.
func replayable(op byte) bool {
	return op < opArchCreate || op > opArchRepair || !archOps[op-opArchCreate].once
}

// jsonBody marshals a backend's structured result, passing its error on.
// The body is memory of its own: there is nothing to release.
func jsonBody(v any, err error) (parts, func(), error) {
	if err != nil {
		return nil, nil, err
	}
	body, err := json.Marshal(v)
	if err != nil {
		return nil, nil, archReject(fmt.Sprintf("transport: encoding response: %v", err))
	}
	return parts{body}, nil, nil
}

// handleArchive dispatches one archive-level request (the caller has
// checked req.op is one) to the server's backend through the op table, and
// hands back the release of what the reply is lent from (archOp.serve). A
// server without a backend (a plain storage node) answers statusError,
// which clients surface as ErrNotServed.
func (s *Server) handleArchive(ctx context.Context, req request) (status byte, payload parts, release func()) {
	if s.archive == nil {
		return statusError, textPart("transport: archive ops not served"), nil
	}
	name := req.id.Object
	if name == "" {
		return statusError, textPart(fmt.Sprintf("transport: archive op without archive name: %v", errArchMalformed)), nil
	}
	op := &archOps[req.op-opArchCreate]
	body, release, err := op.serve(ctx, s, name, req)
	var reject archReject
	switch {
	case err == nil:
		return statusOK, body, release
	case errors.As(err, &reject):
		return statusError, textPart(string(reject)), release
	}
	// A backend failure: attribute it to the serving gateway unless the
	// backend already named a culprit.
	var se *store.ShardError
	if !errors.As(err, &se) {
		err = &store.ShardError{Node: "gateway", Op: op.name, Shard: store.ShardID{Object: name}, Err: err}
	}
	return statusFor(err), parts{encodeWireError(err)}, release
}

// ArchiveClient speaks the archive-level ops to a remote gateway over the
// framed transport, reusing the pooled-connection and deadline machinery
// of RemoteNode (WithTimeout and WithPoolSize apply). It implements ArchiveBackend, so code written against the
// backend interface runs identically against an embedded gateway and a
// remote one. Responses larger than one frame arrive as statusPartial
// continuations and are reassembled transparently.
//
// The reads (Retrieve, RetrieveAll, Log, Info) are sent again, once, on a
// fresh connection when a kept-alive pooled one fails before their reply
// arrives. Create, Commit, Compact,
// Scrub and Repair are sent at most once: when the exchange fails after
// the request left, the error wraps store.ErrNodeDown and the gateway may
// or may not have applied it; Log or Info tells which.
type ArchiveClient struct {
	n *RemoteNode
}

// NewArchiveClient returns a client for the gateway at addr. The id
// appears as the Node field of returned ShardErrors, attributing failures
// to the gateway they came from.
func NewArchiveClient(id, addr string, opts ...ClientOption) *ArchiveClient {
	return &ArchiveClient{n: NewRemoteNode(id, addr, opts...)}
}

// ID returns the client's gateway identifier.
func (c *ArchiveClient) ID() string { return c.n.ID() }

// Addr returns the gateway address.
func (c *ArchiveClient) Addr() string { return c.n.Addr() }

// Close releases the connection pool. It is safe to call concurrently
// with in-flight operations, which fail fast.
func (c *ArchiveClient) Close() error { return c.n.Close() }

// Available reports whether the gateway answers its ping within the ping
// timeout.
func (c *ArchiveClient) Available(ctx context.Context) bool { return c.n.Available(ctx) }

// markNotServed rewrites a peer's rejection of archive ops into a typed
// ErrNotServed wrap. A legacy peer (predating these ops) answers
// "transport: unknown op N"; a current storage node without a gateway
// answers "transport: archive ops not served". Both mean the same thing
// to the caller: dial a gateway instead.
func markNotServed(err error) {
	var se *store.ShardError
	if !errors.As(err, &se) || se.Err == nil {
		return
	}
	msg := se.Err.Error()
	if strings.Contains(msg, "unknown op") || strings.Contains(msg, "archive ops not served") {
		se.Err = fmt.Errorf("%w: %w", ErrNotServed, se.Err)
	}
}

// call performs one archive-op round trip and converts a peer's
// does-not-serve-archives rejection into ErrNotServed.
func (c *ArchiveClient) call(ctx context.Context, op byte, id store.ShardID, payload ...[]byte) ([]byte, error) {
	resp, err := c.n.roundTrip(ctx, archOps[op-opArchCreate].name, op, id, 0, payload...)
	if err != nil {
		markNotServed(err)
		return nil, err
	}
	return resp.payload, nil
}

// callJSON is call for the ops whose response body is one JSON value.
func callJSON[T any](ctx context.Context, c *ArchiveClient, op byte, id store.ShardID, payload ...[]byte) (T, error) {
	var out T
	resp, err := c.call(ctx, op, id, payload...)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(resp, &out); err != nil {
		var zero T
		return zero, fmt.Errorf("transport: decoding %s response: %w", archOps[op-opArchCreate].name, err)
	}
	return out, nil
}

// Create asks the gateway to create archive name with the given spec.
func (c *ArchiveClient) Create(ctx context.Context, name string, spec ArchiveSpec) (ArchiveInfo, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return ArchiveInfo{}, fmt.Errorf("transport: encoding archive spec: %w", err)
	}
	return callJSON[ArchiveInfo](ctx, c, opArchCreate, store.ShardID{Object: name}, payload)
}

// Commit appends object as the archive's next version. expect >= 0
// demands the archive currently hold exactly that many versions.
func (c *ArchiveClient) Commit(ctx context.Context, name string, expect int, object []byte) (core.CommitInfo, error) {
	payload, err := encodeArchCommit(expect, object)
	if err != nil {
		return core.CommitInfo{}, err
	}
	return callJSON[core.CommitInfo](ctx, c, opArchCommit, store.ShardID{Object: name}, payload...)
}

// Retrieve fetches one version (0 = latest).
func (c *ArchiveClient) Retrieve(ctx context.Context, name string, version int) (ArchiveVersion, error) {
	resp, err := c.call(ctx, opArchGet, store.ShardID{Object: name, Row: version})
	if err != nil {
		return ArchiveVersion{}, err
	}
	return decodeArchVersion(resp)
}

// RetrieveAll fetches versions 1..version (0 = through the latest).
func (c *ArchiveClient) RetrieveAll(ctx context.Context, name string, version int) ([][]byte, core.RetrievalStats, error) {
	resp, err := c.call(ctx, opArchGetAll, store.ShardID{Object: name, Row: version})
	if err != nil {
		return nil, core.RetrievalStats{}, err
	}
	return decodeArchVersions(resp)
}

// Log fetches the archive's version history.
func (c *ArchiveClient) Log(ctx context.Context, name string) ([]ArchiveLogEntry, error) {
	return callJSON[[]ArchiveLogEntry](ctx, c, opArchLog, store.ShardID{Object: name})
}

// Info fetches the archive description and cluster health snapshot.
func (c *ArchiveClient) Info(ctx context.Context, name string) (ArchiveInfo, error) {
	return callJSON[ArchiveInfo](ctx, c, opArchInfo, store.ShardID{Object: name})
}

// Compact bounds the archive's chain depth to maxChain (0 = the archive's
// configured policy).
func (c *ArchiveClient) Compact(ctx context.Context, name string, maxChain int) (CompactReport, error) {
	return callJSON[CompactReport](ctx, c, opArchCompact, store.ShardID{Object: name, Row: maxChain})
}

// Scrub verifies every stored shard, optionally repairing damage.
func (c *ArchiveClient) Scrub(ctx context.Context, name string, repair bool) (core.ScrubReport, error) {
	row := 0
	if repair {
		row = 1
	}
	return callJSON[core.ScrubReport](ctx, c, opArchScrub, store.ShardID{Object: name, Row: row})
}

// Repair reconstructs the archive's shards on the given cluster node.
func (c *ArchiveClient) Repair(ctx context.Context, name string, node int) (core.RepairReport, error) {
	return callJSON[core.RepairReport](ctx, c, opArchRepair, store.ShardID{Object: name, Row: node})
}
