package core

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
