package loadgen

import (
	"os"
	"testing"

	"github.com/secarchive/sec/internal/transport"
)

// TestMain runs the suite, the soak included, with every served connection
// overwriting its request buffer once the request has been handled and
// every pooled frame overwritten once its shards are released: a history
// the checker accepts then also says no layer kept a slice of either.
func TestMain(m *testing.M) {
	transport.ScribbleRequests = true
	transport.ScribbleReleasedFrames = true
	os.Exit(m.Run())
}
