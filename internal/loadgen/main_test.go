package loadgen

import (
	"os"
	"testing"

	"github.com/secarchive/sec/internal/erasure"
	"github.com/secarchive/sec/internal/transport"
)

// TestMain runs the suite, the soak included, with every served connection
// overwriting its request buffer once the request has been handled, every
// pooled frame overwritten once its shards are released, and every set of
// decoded blocks once its reply is written: a history the checker accepts
// then also says no layer kept a slice of any of them.
func TestMain(m *testing.M) {
	transport.ScribbleRequests = true
	transport.ScribbleReleasedFrames = true
	erasure.ScribbleReleasedBuffers = true
	os.Exit(m.Run())
}
