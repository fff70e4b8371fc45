package transport

import (
	"os"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
)

// TestMain runs the whole suite with every served connection scribbling
// over its request buffer once handle has returned, every pooled frame
// scribbled over once its last holder released it, and every pooled block
// set once it is released: a test passes only if nothing kept a slice of a
// request, or of a frame or a lent reply past its Release.
func TestMain(m *testing.M) {
	ScribbleRequests = true
	ScribbleReleasedFrames = true
	erasure.ScribbleReleasedBuffers = true
	os.Exit(m.Run())
}
