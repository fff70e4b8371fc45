// Command secvet is this repository's invariant checker: a suite of
// custom static analyzers (ctx-first APIs, error provenance, pooled
// buffer hygiene, no locks across RPCs, default-off resilience) run as a
// vet tool:
//
//	go build -o /tmp/secvet ./cmd/secvet
//	go vet -vettool=/tmp/secvet ./...
//
// See DESIGN.md section 11 for the rules and internal/lint for the engine.
package main

import (
	"os"

	"github.com/secarchive/sec/internal/lint"
)

func main() {
	os.Exit(lint.Main(os.Args[1:], os.Stdout, os.Stderr))
}
