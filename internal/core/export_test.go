package core

import (
	"time"

	"github.com/secarchive/sec/internal/store"
)

// Bridges for the external core_test package (batch_remote_test.go): the
// tests that drive archives over real transport servers cannot live in
// package core itself, because transport imports core for the gateway
// protocol and an internal test package may not close that cycle.
var (
	TestConfigForExternal   = testConfig
	MustCommitForExternal   = mustCommit
	MustRetrieveForExternal = mustRetrieve
	EditBlocksForExternal   = editBlocks
	FullIDForExternal       = fullID
	DeltaIDForExternal      = deltaID
)

// OpenHedgedForExternal opens an archive from its manifest with hedged
// reads after delay: hedging belongs to the process reading an archive, so
// no manifest carries it.
func OpenHedgedForExternal(m Manifest, cluster *store.Cluster, delay time.Duration) (*Archive, error) {
	a, err := Open(m, cluster)
	if err == nil {
		a.cfg.HedgeDelay = delay
	}
	return a, err
}
