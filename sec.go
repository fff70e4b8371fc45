package sec

import (
	"math/rand"
	"time"

	"github.com/secarchive/sec/internal/core"
	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/gateway"
	"github.com/secarchive/sec/internal/store"
	"github.com/secarchive/sec/internal/transport"
	"github.com/secarchive/sec/internal/vcs"
	"github.com/secarchive/sec/internal/workload"
)

// Core archive types.
type (
	// Archive is a SEC-encoded chain of versions of one object.
	Archive = core.Archive
	// ArchiveConfig configures an Archive.
	ArchiveConfig = core.Config
	// Scheme selects what is stored per version (deltas vs full copies).
	Scheme = core.Scheme
	// CommitInfo reports what a commit stored.
	CommitInfo = core.CommitInfo
	// CompactionInfo reports what a chain compaction pass changed.
	CompactionInfo = core.CompactionInfo
	// RetrievalStats accounts the node reads of a retrieval.
	RetrievalStats = core.RetrievalStats
	// CacheStats is a snapshot of an archive's decoded-version read cache
	// (enabled by ArchiveConfig.ReadCacheBytes).
	CacheStats = core.CacheStats
	// ObjectRead details the reads spent on one stored object.
	ObjectRead = core.ObjectRead
	// ScrubReport summarizes an integrity pass over an archive's shards.
	ScrubReport = core.ScrubReport
	// RepairReport summarizes a node repair pass.
	RepairReport = core.RepairReport
	// Manifest is the serializable archive description.
	Manifest = core.Manifest
	// ManifestEntry describes one version's stored objects in a Manifest.
	ManifestEntry = core.ManifestEntry
)

// Storage schemes (Section III of the paper).
const (
	// BasicSEC stores the first version in full and every subsequent
	// version as a delta.
	BasicSEC = core.BasicSEC
	// OptimizedSEC stores dense versions (gamma >= k/2) in full.
	OptimizedSEC = core.OptimizedSEC
	// ReversedSEC keeps the latest version in full so recent reads are
	// cheap.
	ReversedSEC = core.ReversedSEC
	// NonDifferential stores every version in full (the baseline).
	NonDifferential = core.NonDifferential
)

// CodeKind selects the erasure-code construction.
type CodeKind = erasure.Kind

// CodeField selects the coding symbol width.
type CodeField = core.Field

// Coding fields.
const (
	// GF8 codes over GF(2^8): all constructions, n+k <= 256 (default).
	GF8 = core.GF8
	// GF16 codes over GF(2^16): non-systematic Cauchy with n+k up to
	// 65536, for very wide archives.
	GF16 = core.GF16
)

// Erasure code constructions.
const (
	// NonSystematicCauchy is the paper's G_N: any 2*gamma shards
	// sparse-decode a gamma-sparse delta.
	NonSystematicCauchy = erasure.NonSystematicCauchy
	// SystematicCauchy is the paper's G_S = [I; B]: data shards are
	// stored verbatim; sparse reads use parity shards.
	SystematicCauchy = erasure.SystematicCauchy
	// NonSystematicVandermonde enables fast Berlekamp-Massey sparse
	// decoding on consecutive shard windows.
	NonSystematicVandermonde = erasure.NonSystematicVandermonde
	// SystematicVandermonde combines verbatim data shards with
	// syndrome-decodable parity windows.
	SystematicVandermonde = erasure.SystematicVandermonde
)

// Storage substrate types.
type (
	// Cluster is an ordered set of storage nodes.
	Cluster = store.Cluster
	// StorageNode is one storage device holding coded shards.
	StorageNode = store.Node
	// NodeStats is an I/O counter snapshot.
	NodeStats = store.NodeStats
	// ShardID identifies one coded shard on a node.
	ShardID = store.ShardID
	// Placement maps shards of stored objects to cluster nodes.
	Placement = store.Placement
	// ColocatedPlacement stores all versions' shards on one node group
	// (the paper's optimal choice).
	ColocatedPlacement = store.ColocatedPlacement
	// DispersedPlacement gives every stored object its own node group.
	DispersedPlacement = store.DispersedPlacement
	// MemNode is an in-memory node with failure injection.
	MemNode = store.MemNode
	// DiskNode is a durable disk-backed node: one checksummed file per
	// shard, atomic writes, corruption detected at read time.
	DiskNode = store.DiskNode
)

// ShardError is the structured error attributing a failed shard operation
// to a node, shard, and operation. Every storage layer returns it (the TCP
// transport carries it across the wire), so
//
//	var se *sec.ShardError
//	if errors.As(err, &se) { log.Printf("node %s failed %s of %v", se.Node, se.Op, se.Shard) }
//
// works on any failed Commit, Retrieve, Scrub, or RepairNode.
type ShardError = store.ShardError

// Sentinel errors re-exported from the storage and archive layers.
var (
	// ErrNodeDown reports an operation against a failed node.
	ErrNodeDown = store.ErrNodeDown
	// ErrShardNotFound reports a missing shard.
	ErrShardNotFound = store.ErrNotFound
	// ErrShardCorrupt reports a shard that is present but failed integrity
	// verification, or a decoded version that does not match the CRC32C its
	// commit recorded; Scrub(true) or RepairNode heal it.
	ErrShardCorrupt = store.ErrCorrupt
	// ErrNoSuchVersion reports a version number outside 1..L.
	ErrNoSuchVersion = core.ErrNoSuchVersion
	// ErrUnavailable reports that too few live shards remain.
	ErrUnavailable = core.ErrUnavailable
	// ErrBusy reports a gateway write rejected because the archive's
	// bounded writer queue is full; retry after a backoff.
	ErrBusy = store.ErrBusy
	// ErrConflict reports an optimistic-commit precondition failure or a
	// duplicate create: the archive changed under the caller.
	ErrConflict = store.ErrConflict
)

// NewArchive creates an empty archive on the cluster.
func NewArchive(cfg ArchiveConfig, cluster *Cluster) (*Archive, error) {
	return core.New(cfg, cluster)
}

// OpenArchive reconstructs an archive from its manifest.
func OpenArchive(m Manifest, cluster *Cluster) (*Archive, error) {
	return core.Open(m, cluster)
}

// NewMemCluster returns a growable cluster of in-memory nodes, the
// simulation substrate used throughout the paper's evaluation.
func NewMemCluster(size int) *Cluster { return store.NewMemCluster(size) }

// NewCluster returns a fixed cluster over the given nodes (e.g. remote TCP
// nodes).
func NewCluster(nodes []StorageNode) *Cluster { return store.NewCluster(nodes) }

// NewMemNode returns an in-memory storage node.
func NewMemNode(id string) *MemNode { return store.NewMemNode(id) }

// NewDiskNode creates (or reopens) a durable disk-backed storage node
// rooted at dir. Shards survive process restarts; bit rot is detected at
// read time as ErrShardCorrupt.
func NewDiskNode(id, dir string) (*DiskNode, error) { return store.NewDiskNode(id, dir) }

// OpenDiskNode reopens an existing disk node directory (e.g. after a
// restart), refusing directories not initialized by NewDiskNode.
func OpenDiskNode(id, dir string) (*DiskNode, error) { return store.OpenDiskNode(id, dir) }

// Transport: serving nodes over TCP and connecting to them.
type (
	// NodeServer serves a storage node over TCP.
	NodeServer = transport.Server
	// NodeRequestStats is a NodeServer's served-request accounting,
	// including the shard payload bytes read and written over the wire.
	NodeRequestStats = transport.RequestStats
	// RemoteNode is a StorageNode client backed by a NodeServer.
	RemoteNode = transport.RemoteNode
)

// NewNodeServer returns a TCP server exposing the given node; call Listen
// to bind it.
func NewNodeServer(node StorageNode, opts ...transport.ServerOption) *NodeServer {
	return transport.NewServer(node, opts...)
}

// DialNode returns a client for the node server at addr. The connection is
// established lazily.
func DialNode(id, addr string, opts ...transport.ClientOption) *RemoteNode {
	return transport.NewRemoteNode(id, addr, opts...)
}

// WithNodeTimeout sets a remote node's per-operation deadline, used when
// the caller's context carries no earlier one. A per-call context deadline
// always wins when it is sooner.
func WithNodeTimeout(d time.Duration) transport.ClientOption {
	return transport.WithTimeout(d)
}

// NodeHealth is a snapshot of one node's observed health: success, failure
// and probe-failure counters, and the read latency estimate by which reads
// list a slow node last.
type NodeHealth = store.NodeHealth

// Version-store layer (the paper's SVN/wiki motivating applications).
type (
	// Repository is a miniature delta-based version store over SEC
	// archives.
	Repository = vcs.Repository
	// RepositoryConfig parameterizes the per-file archives: an
	// ArchiveConfig that sets no Name.
	RepositoryConfig = ArchiveConfig
	// RepoCommit is one repository revision.
	RepoCommit = vcs.Commit
)

// NewRepository creates an empty version store on the cluster.
func NewRepository(cfg RepositoryConfig, cluster *Cluster) (*Repository, error) {
	return vcs.NewRepository(cfg, cluster)
}

// Gateway layer (cmd/secgw): one daemon owning many archives, serving
// them to concurrent clients over the framed transport. Clients use the
// secclient package.
type (
	// Gateway serializes writers per archive and shares each archive's
	// decoded-version read cache across every client.
	Gateway = gateway.Gateway
	// GatewayConfig parameterizes a Gateway.
	GatewayConfig = gateway.Config
	// GatewayStats is a point-in-time snapshot of gateway counters.
	GatewayStats = gateway.Stats
)

// NewGateway opens a gateway over the cluster; archive manifests persist
// under cfg.Root. Serve it with NewGatewayServer, or call it in-process
// through secclient.Embed.
func NewGateway(cfg GatewayConfig) (*Gateway, error) {
	return gateway.New(cfg)
}

// NewGatewayServer returns a TCP server exposing the gateway's archive
// operations; call Listen to serve. The server answers pings but refuses
// storage-node ops: a gateway is not a node.
func NewGatewayServer(gw *Gateway, opts ...transport.ServerOption) *NodeServer {
	opts = append([]transport.ServerOption{transport.WithArchiveBackend(gw)}, opts...)
	return transport.NewServer(nil, opts...)
}

// Workload generators for examples and experiments.
type (
	// TextDocument models a wiki article or source file under localized
	// revision.
	TextDocument = workload.TextDocument
	// BackupImage models an incremental-backup disk image with Zipf-hot
	// file churn.
	BackupImage = workload.BackupImage
)

// NewTextDocument generates a random size-byte document.
func NewTextDocument(rng *rand.Rand, size int) (*TextDocument, error) {
	return workload.NewTextDocument(rng, size)
}

// NewBackupImage creates an image of files*fileSize random bytes.
func NewBackupImage(rng *rand.Rand, files, fileSize int) (*BackupImage, error) {
	return workload.NewBackupImage(rng, files, fileSize)
}

// SparseEdit returns a copy of object with exactly gamma modified blocks,
// handy for constructing versions with known delta sparsity.
func SparseEdit(rng *rand.Rand, object []byte, blockSize, gamma int) ([]byte, error) {
	return workload.SparseEdit(rng, object, blockSize, gamma)
}
