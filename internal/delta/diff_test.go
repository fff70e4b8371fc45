package delta

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDiff holds Blocking.Diff, the commit's one pass over an object, to
// the expanding reference it replaces: next is Split(object), the delta is
// a view of Compute(prev, next) with each block narrowed to its own window,
// neither input is written, every unchanged block of next is prev's own
// block, and nothing else returned aliases prev or object. The object is prev's bytes cut or zero-extended to cut bytes,
// with edits applied as (low, high, xor) position triples; a cut past the
// capacity must be refused. The seed corpus lives in testdata/fuzz/FuzzDiff.
func FuzzDiff(f *testing.F) {
	f.Fuzz(func(t *testing.T, k, blockSize int, prevData []byte, cut int, edits []byte) {
		b := Blocking{K: 1 + int(uint(k)%16), BlockSize: 1 + int(uint(blockSize)%1024)}
		if len(prevData) > b.Capacity() {
			prevData = prevData[:b.Capacity()]
		}
		prev, err := b.Split(prevData)
		if err != nil {
			t.Fatal(err)
		}
		object := make([]byte, int(uint(cut)%uint(2*b.Capacity()+1)))
		copy(object, prevData)
		for i := 0; i+2 < len(edits) && len(object) > 0; i += 3 {
			object[(int(edits[i])|int(edits[i+1])<<8)%len(object)] ^= edits[i+2]
		}
		prevBefore, objectBefore := clone(prev), append([]byte(nil), object...)

		next, d, err := b.Diff(prev, object)
		if !Equal(prev, prevBefore) || !bytes.Equal(object, objectBefore) {
			t.Fatal("Diff wrote to an input")
		}
		want, splitErr := b.Split(object)
		if splitErr != nil {
			if err == nil {
				t.Fatalf("Diff accepted a %d-byte object over capacity %d", len(object), b.Capacity())
			}
			return
		}
		if err != nil {
			t.Fatalf("Diff: %v", err)
		}
		if !Equal(next, want) {
			t.Fatal("next differs from Split(object)")
		}
		z, err := Compute(prev, want)
		if err != nil {
			t.Fatal(err)
		}
		wantD, err := View(z)
		if err != nil {
			t.Fatal(err)
		}
		wantD = narrow(wantD)
		if !reflect.DeepEqual(d, wantD) {
			t.Fatalf("delta = %+v, want %+v", d, wantD)
		}
		changed := make([]bool, b.K)
		for _, s := range d.Support {
			changed[s] = true
		}
		for i := range next {
			if shared := &next[i][0] == &prev[i][0]; shared == changed[i] {
				t.Fatalf("block %d: shared with prev = %v, changed = %v", i, shared, changed[i])
			}
		}
		// Scribble both inputs: a changed block of next and every delta block
		// must keep their bytes, so none of them is memory of prev or object.
		for _, blk := range prev {
			for i := range blk {
				blk[i] = 0xA5
			}
		}
		for i := range object {
			object[i] = 0x5A
		}
		for i := range next {
			if changed[i] && !bytes.Equal(next[i], want[i]) {
				t.Fatalf("changed block %d aliases an input", i)
			}
		}
		for i := range d.Blocks {
			if !bytes.Equal(d.Blocks[i], wantD.Blocks[i]) {
				t.Fatalf("delta block %d aliases an input", d.Support[i])
			}
		}
	})
}

// TestDiffRefusesAMisshapenPredecessor: prev must be the blocking's shape.
func TestDiffRefusesAMisshapenPredecessor(t *testing.T) {
	b := Blocking{K: 2, BlockSize: 2}
	for _, prev := range [][][]byte{{{1, 2}}, {{1, 2}, {3}}} {
		if _, _, err := b.Diff(prev, []byte{1}); err == nil {
			t.Errorf("Diff(%v): want error", prev)
		}
	}
}
