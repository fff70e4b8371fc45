// Package core implements the paper's primary contribution: Sparsity
// Exploiting Coding (SEC) archives of versioned data over an erasure-coded
// distributed store.
//
// An Archive holds the versions x_1..x_L of one fixed-capacity object.
// Depending on the Scheme, a committed version is stored either in full
// (erasure-encoded as is) or as the delta z_j = x_j - x_{j-1} whose
// block-level sparsity gamma_j permits retrieval from only
// min(2*gamma_j, k) shards instead of k (Section III). Retrieval walks the
// stored chain from the nearest fully-stored anchor version, reading each
// delta with a sparse read when the code admits one, and accounts every
// node read so measured I/O can be compared with the paper's formulas
// (3)-(4).
package core

import (
	"fmt"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/store"
)

// Scheme selects which objects are stored for a version chain (Section
// III-A of the paper).
type Scheme int

// Storage schemes.
const (
	// BasicSEC stores {x_1, z_2, ..., z_L}: the first version in full and
	// every later version as a delta, regardless of sparsity.
	BasicSEC Scheme = iota + 1
	// OptimizedSEC stores a delta only when gamma < k/2 and the full
	// version otherwise ("Optimized Step j+1").
	OptimizedSEC
	// ReversedSEC stores {z_2, ..., z_L, x_L}: the latest version in full
	// so recent versions are cheap to access.
	ReversedSEC
	// NonDifferential stores every version in full: the paper's baseline.
	NonDifferential
)

// String returns the scheme name used in manifests and reports.
func (s Scheme) String() string {
	switch s {
	case BasicSEC:
		return "basic-sec"
	case OptimizedSEC:
		return "optimized-sec"
	case ReversedSEC:
		return "reversed-sec"
	case NonDifferential:
		return "non-differential"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme maps a scheme name back to its value.
func ParseScheme(name string) (Scheme, error) {
	for _, s := range []Scheme{BasicSEC, OptimizedSEC, ReversedSEC, NonDifferential} {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("core: unknown scheme %q", name)
}

// Config describes an archive. The zero value is not valid; all fields
// without stated defaults are required.
type Config struct {
	// Name prefixes the shard object identifiers. Defaults to "archive".
	Name string
	// Scheme selects the storage scheme.
	Scheme Scheme
	// Code selects the erasure code construction.
	Code erasure.Kind
	// N and K are the code parameters: N shards per object, any K
	// reconstruct.
	N, K int
	// BlockSize is the bytes per block; the object capacity is K*BlockSize.
	BlockSize int
	// Placement maps shards to cluster nodes. Defaults to colocated,
	// the placement the paper shows is optimal.
	Placement store.Placement
	// MaxChainLength bounds every version's chain depth (0 = unbounded):
	// the delta applications of the walk the planner takes to read it
	// (ChainDepth). When set, a commit that pushes some version's chain
	// depth beyond the bound triggers compaction: over-deep versions are
	// rebased onto the full anchor their walk starts from with a merged
	// (XOR-composed) delta, or promoted to a full checkpoint when the
	// merged delta is dense. The superseded delta codewords are queued
	// like everything a commit supersedes, for ReclaimSupersededContext.
	MaxChainLength int
	// CheckpointEvery stores (or, for Reversed SEC, retains) a full
	// codeword at least every CheckpointEvery versions (0 = only what the
	// scheme stores). Checkpoints bound chain growth proactively at commit
	// time, where MaxChainLength bounds it reactively by compaction.
	CheckpointEvery int
	// CompressDeltas enables compressed differential erasure coding
	// (CDEC, the paper's follow-up work): a delta whose sparsity gamma is
	// between 1 and K-1 is compacted to its gamma non-zero blocks
	// before encoding and stored as a codeword of a (gamma+N-K, gamma)
	// code. The parity count is unchanged, so a compressed delta tolerates
	// the same N-K node failures, while both its stored size and its
	// decode cost shrink from the full-vector shape to the gamma-block
	// one: retrieval reads gamma shards instead of min(2*gamma, K). The
	// support (which blocks are non-zero) rides in the manifest like the
	// per-delta gamma does. Off by default, preserving the paper's exact
	// storage and read accounting; archives with existing uncompressed
	// deltas keep reading them unchanged (chains may mix freely).
	CompressDeltas bool
	// ReadCacheBytes budgets an in-memory LRU cache of decoded versions
	// (0 = disabled, the default). With a budget set, each commit keeps
	// its own version and single-version retrievals keep the versions
	// they materialize - the requested version and every chain prefix
	// walked to reach it - and later retrievals of a cached version, or
	// whole-prefix reads whose every version is cached, are served from
	// memory with zero node reads (RetrievalStats.CacheHits). The budget
	// counts a block that several versions share once. A retrieved
	// version is kept only once it matched its commit's CRC32C, so the
	// cache holds no bytes a wrong row decoded; versions are immutable, so
	// commits, compactions, repairs and scrubs leave entries in place.
	// Disabled by default so read counts match the paper's formulas
	// exactly.
	ReadCacheBytes int
}

func (c Config) withDefaults() Config {
	if c.Name == "" {
		c.Name = "archive"
	}
	if c.Placement == nil {
		c.Placement = store.ColocatedPlacement{}
	}
	return c
}

func (c Config) validate() error {
	switch c.Scheme {
	case BasicSEC, OptimizedSEC, ReversedSEC, NonDifferential:
	default:
		return fmt.Errorf("core: invalid scheme %d", int(c.Scheme))
	}
	if c.K <= 0 || c.N <= c.K {
		return fmt.Errorf("core: need n > k > 0, got (n,k)=(%d,%d)", c.N, c.K)
	}
	if c.BlockSize <= 0 {
		return fmt.Errorf("core: block size must be positive, got %d", c.BlockSize)
	}
	if c.MaxChainLength < 0 {
		return fmt.Errorf("core: negative max chain length %d", c.MaxChainLength)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("core: negative checkpoint interval %d", c.CheckpointEvery)
	}
	if c.ReadCacheBytes < 0 {
		return fmt.Errorf("core: negative read cache budget %d", c.ReadCacheBytes)
	}
	return nil
}
