package transport

import (
	"os"
	"testing"
)

// TestMain runs the whole suite with every served connection scribbling
// over its request buffer once handle has returned, and every pooled frame
// scribbled over once its last holder released it: a test passes only if
// nothing kept a slice of a request, or of a frame past its Release.
func TestMain(m *testing.M) {
	ScribbleRequests = true
	ScribbleReleasedFrames = true
	os.Exit(m.Run())
}
