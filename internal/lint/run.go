package lint

import (
	"fmt"
	"io"
	"strings"
)

// Main is the secvet entry point, shared by cmd/secvet. It speaks the go
// command's vet protocol: `go vet -vettool=$(which secvet) ./...` invokes
// the binary with -V=full and -flags, then once per compilation unit
// (including test units) with a *.cfg file. `help` lists the analyzers;
// any other invocation is a usage error.
//
// It returns the process exit code: 0 clean, 1 usage or operational
// error, 2 when diagnostics were reported (matching go vet's convention).
func Main(args []string, stdout, stderr io.Writer) int {
	switch {
	case len(args) == 1 && strings.HasPrefix(args[0], "-V"):
		// The go command requires `-V=full` to print a stable identity
		// line it folds into its build cache key.
		fmt.Fprintf(stdout, "secvet version %s\n", Version)
		return 0
	case len(args) == 1 && args[0] == "-flags":
		// No tool-specific flags; the go command expects a JSON array of
		// flag definitions.
		fmt.Fprintln(stdout, "[]")
		return 0
	case len(args) == 1 && (args[0] == "help" || args[0] == "-h" || args[0] == "--help"):
		printHelp(stdout)
		return 0
	case len(args) == 2 && args[0] == "help":
		if a := Lookup(args[1]); a != nil {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
			return 0
		}
		fmt.Fprintf(stderr, "secvet: no analyzer named %q\n", args[1])
		return 1
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		n, err := RunVetTool(args[0], All(), stdout)
		if err != nil {
			fmt.Fprintf(stderr, "secvet: %v\n", err)
			return 1
		}
		if n > 0 {
			return 2
		}
		return 0
	}
	printHelp(stderr)
	return 1
}

// Version is the tool identity reported to the go command's -V=full
// handshake; bump it when analyzer behavior changes so cached vet
// results are invalidated.
const Version = "v1.0.0"

func printHelp(w io.Writer) {
	fmt.Fprintln(w, "secvet enforces this repository's invariants (DESIGN.md section 11).")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "usage:")
	fmt.Fprintln(w, "  go vet -vettool=$(which secvet) ./...   analyze packages, test files included")
	fmt.Fprintln(w, "  secvet help <analyzer>                  print one analyzer's rule")
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "analyzers:")
	for _, a := range All() {
		doc := a.Doc
		if i := strings.IndexByte(doc, '\n'); i >= 0 {
			doc = doc[:i]
		}
		fmt.Fprintf(w, "  %-14s %s\n", a.Name, doc)
	}
	fmt.Fprintln(w, "")
	fmt.Fprintln(w, "suppress an intentional violation in place with a mandatory reason:")
	fmt.Fprintln(w, "  //lint:allow <analyzer> <reason>")
}
