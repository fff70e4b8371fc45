package transport

import (
	"os"
	"testing"
)

// TestMain runs the whole suite with every served connection scribbling
// over its request buffer once handle has returned: a test passes only if
// nothing kept a slice of a request.
func TestMain(m *testing.M) {
	ScribbleRequests = true
	os.Exit(m.Run())
}
