package erasure

import "sync"

// Buffers is a reusable set of equally sized byte blocks handed out by
// GetBuffers. The blocks share one backing array (full-capacity sliced, so
// an overrun of one block faults instead of corrupting its neighbour) and
// hold unspecified bytes until overwritten; EncodeInto and DecodeFullInto
// overwrite every byte of their destination.
type Buffers struct {
	flat []byte
	// Blocks are the count equally sized blocks requested from GetBuffers.
	Blocks [][]byte
}

var bufferPool = sync.Pool{New: func() any { return new(Buffers) }}

// GetBuffers returns a recycled set of count blocks of blockLen bytes each,
// for use as EncodeInto/DecodeFullInto destinations on hot paths. Release
// returns the set to the pool; steady-state callers do not allocate.
func GetBuffers(count, blockLen int) *Buffers {
	b := bufferPool.Get().(*Buffers)
	need := count * blockLen
	if cap(b.flat) < need {
		b.flat = make([]byte, need)
	}
	b.flat = b.flat[:need]
	if cap(b.Blocks) < count {
		b.Blocks = make([][]byte, count)
	}
	b.Blocks = b.Blocks[:count]
	for i := range b.Blocks {
		b.Blocks[i] = b.flat[i*blockLen : (i+1)*blockLen : (i+1)*blockLen]
	}
	return b
}

// ScribbleReleasedBuffers makes Release overwrite a set before it goes back
// to the pool. Tests set it (in TestMain, before anything runs) to prove that
// nothing reads a block past the Release of its set.
var ScribbleReleasedBuffers bool

// Release returns the buffer set to the pool. The caller must not use the
// set or any of its blocks afterwards.
func (b *Buffers) Release() {
	if ScribbleReleasedBuffers {
		for i := range b.flat {
			b.flat[i] = 0xA5
		}
	}
	bufferPool.Put(b)
}
