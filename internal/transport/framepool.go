package transport

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"github.com/secarchive/sec/internal/store"
)

// The frame pool recycles the buffers of frames larger than connBufSize: the
// get-batch responses a RemoteNode reads, whose shards go to a caller that
// releases them (store.ShardResult.Release), and the request buffers of a
// served connection, which are the server's again when handle returns. A
// pooled buffer is not zeroed before a frame is read over it, which is the
// point: a make of a 2 MB read's frames cleared 2 MB of memory that the
// socket was about to overwrite.
//
// What the pool keeps is capped four ways, because a buffer left in a
// sync.Pool stays live until two collections have passed. Frames at or
// below connBufSize - every JSON reply, every batch of a few small blocks -
// are not pooled. Nor are get-batch responses whose shards average
// minPooledShard or less: a chain walk over small blocks batches a
// different number of them into every frame, so its buffers would wait in a
// class no later frame asks for, where a read of large blocks asks for the
// same few sizes again and again. Nor are frames above maxPooledFrame: a
// commit of a large object and a retrieve-all's batches are rare next to
// the frames of single-version reads. And buffers come in size classes of
// an eighth of a power of two, so a frame wastes at most 1/8 of its class:
// a 200 KiB shard's frame takes a 208 KiB buffer.

const (
	// frameClassSteps is the number of size classes per doubling.
	frameClassSteps = 8
	// Pooled frame bodies lie in (2^frameMinShift, 2^frameMaxShift]: above
	// connBufSize, up to maxPooledFrame (TestFrameClasses).
	frameMinShift = 16
	frameMaxShift = 20
	// maxPooledFrame is the largest frame body the pool takes.
	maxPooledFrame = 1 << frameMaxShift
	// minPooledShard is the average shard size a get-batch response must
	// exceed to be pooled.
	minPooledShard = 16 << 10
)

var framePools [(frameMaxShift - frameMinShift) * frameClassSteps]sync.Pool

// getBatchPool is the frame size above which the response to a get batch of
// the given number of shards is read into the frame pool.
func getBatchPool(shards int) int { return max(connBufSize, shards*minPooledShard) }

// ScribbleReleasedFrames makes every pooled frame overwrite its buffer when
// its last holder releases it, before it goes back to the pool. Tests set it
// (in TestMain, before any server or client runs) to prove that nothing
// keeps a slice of a frame past Release.
var ScribbleReleasedFrames bool

// pooledFrame is a frame read into a buffer from the frame pool. The frame
// stays out of the pool while refs is above zero; the last release returns
// it.
type pooledFrame struct {
	buf   []byte // the class's whole buffer; a frame body is a prefix of it
	class int
	refs  atomic.Int32
}

// frameClass returns the size class of a frame body of n > connBufSize
// bytes and the buffer length of that class: the smallest multiple of
// 2^e/8 at least n, where 2^e < n <= 2^(e+1).
func frameClass(n int) (class, size int) {
	e := bits.Len(uint(n-1)) - 1
	step := 1 << (e - 3)
	s := (n - 1<<e + step - 1) / step // 1..frameClassSteps
	return (e-frameMinShift)*frameClassSteps + s - 1, 1<<e + s*step
}

// getFrame returns a pooled frame whose buffer holds at least n bytes, with
// one reference, the caller's. n must lie in (connBufSize, maxPooledFrame].
func getFrame(n int) *pooledFrame {
	class, size := frameClass(n)
	f, _ := framePools[class].Get().(*pooledFrame)
	if f == nil {
		f = &pooledFrame{buf: make([]byte, size), class: class}
	}
	f.refs.Store(1)
	return f
}

// lend hands the shards a frame was decoded into out with a Release each:
// every successful result holds one reference, and the frame goes back to
// the pool once all of them are released. A frame that no result holds
// goes back at once. A nil frame lends nothing, and its results keep a nil
// Release.
func (f *pooledFrame) lend(results []store.ShardResult) {
	if f == nil {
		return
	}
	held := 0
	for _, res := range results {
		if res.Err == nil {
			held++
		}
	}
	if held == 0 {
		f.release()
		return
	}
	f.refs.Store(int32(held))
	release := f.release
	for i := range results {
		if results[i].Err == nil {
			results[i].Release = release
		}
	}
}

// release drops one reference; the last returns the buffer to the pool. A
// nil frame - a body that was not pooled - has nothing to return.
func (f *pooledFrame) release() {
	if f == nil {
		return
	}
	switch refs := f.refs.Add(-1); {
	case refs > 0:
		return
	case refs < 0:
		panic("transport: frame released more often than it was held")
	}
	if ScribbleReleasedFrames {
		for i := range f.buf {
			f.buf[i] = 0xA5
		}
	}
	framePools[f.class].Put(f)
}
