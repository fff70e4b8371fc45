package delta

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewBlockingValidation(t *testing.T) {
	tests := []struct {
		name         string
		k, blockSize int
		wantErr      bool
	}{
		{"valid", 3, 1024, false},
		{"zero k", 0, 8, true},
		{"negative k", -1, 8, true},
		{"zero block size", 3, 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := NewBlocking(tt.k, tt.blockSize)
			if (err != nil) != tt.wantErr {
				t.Errorf("NewBlocking(%d,%d) err = %v, wantErr = %v", tt.k, tt.blockSize, err, tt.wantErr)
			}
		})
	}
}

func TestBlockingFor(t *testing.T) {
	tests := []struct {
		name      string
		objectLen int
		k         int
		wantSize  int
	}{
		{"exact multiple", 3072, 3, 1024},
		{"round up", 3073, 3, 1025},
		{"small object", 2, 3, 1},
		{"empty object", 0, 3, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b, err := BlockingFor(tt.objectLen, tt.k)
			if err != nil {
				t.Fatal(err)
			}
			if b.BlockSize != tt.wantSize {
				t.Errorf("BlockSize = %d, want %d", b.BlockSize, tt.wantSize)
			}
			if b.Capacity() < tt.objectLen {
				t.Errorf("Capacity %d below object length %d", b.Capacity(), tt.objectLen)
			}
		})
	}
	if _, err := BlockingFor(-1, 3); err == nil {
		t.Error("BlockingFor(-1,3): want error")
	}
}

func TestSplitJoinRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		b, err := BlockingFor(len(data), 5)
		if err != nil {
			return false
		}
		blocks, err := b.Split(data)
		if err != nil {
			return false
		}
		back, err := b.Join(blocks, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(back, data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSplitPadsWithZeros(t *testing.T) {
	b, err := NewBlocking(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := b.Split([]byte{1, 2, 3, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{{1, 2, 3, 4}, {5, 0, 0, 0}, {0, 0, 0, 0}}
	if !reflect.DeepEqual(blocks, want) {
		t.Errorf("Split = %v, want %v", blocks, want)
	}
}

func TestSplitOverCapacity(t *testing.T) {
	b, err := NewBlocking(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Split(make([]byte, 5)); err == nil {
		t.Error("Split over capacity: want error")
	}
}

func TestJoinErrors(t *testing.T) {
	b, err := NewBlocking(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	good := [][]byte{{1, 2}, {0, 0}}
	tests := []struct {
		name   string
		blocks [][]byte
		length int
	}{
		{"wrong block count", [][]byte{{1, 2}}, 2},
		{"wrong block size", [][]byte{{1, 2}, {3}}, 2},
		{"negative length", good, -1},
		{"length over capacity", good, 5},
		{"non-zero padding", [][]byte{{1, 2}, {3, 0}}, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := b.Join(tt.blocks, tt.length); err == nil {
				t.Error("want error, got nil")
			}
		})
	}
}

// clone deep-copies a block vector.
func clone(blocks [][]byte) [][]byte {
	c := make([][]byte, len(blocks))
	for i, blk := range blocks {
		c[i] = bytes.Clone(blk)
	}
	return c
}

// TestComputeIsItsOwnInverse: the XOR delta of two versions turns either
// one into the other.
func TestComputeIsItsOwnInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	b, err := NewBlocking(6, 32)
	if err != nil {
		t.Fatal(err)
	}
	prevData := make([]byte, b.Capacity())
	nextData := make([]byte, b.Capacity())
	rng.Read(prevData)
	rng.Read(nextData)
	prev, err := b.Split(prevData)
	if err != nil {
		t.Fatal(err)
	}
	next, err := b.Split(nextData)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compute(prev, next)
	if err != nil {
		t.Fatal(err)
	}
	forward, err := Compute(prev, d)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(forward, next) {
		t.Error("prev + delta != next")
	}
	backward, err := Compute(next, d)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(backward, prev) {
		t.Error("next + delta != prev (XOR deltas must be self-inverse)")
	}
}

func TestComputeShapeErrors(t *testing.T) {
	if _, err := Compute([][]byte{{1}}, [][]byte{{1}, {2}}); err == nil {
		t.Error("block count mismatch: want error")
	}
	if _, err := Compute([][]byte{{1}}, [][]byte{{1, 2}}); err == nil {
		t.Error("block size mismatch: want error")
	}
}

func TestSparsity(t *testing.T) {
	tests := []struct {
		name      string
		blocks    [][]byte
		wantGamma int
	}{
		{"all zero", [][]byte{{0, 0}, {0, 0}, {0, 0}}, 0},
		{"one sparse", [][]byte{{0, 0}, {0, 9}, {0, 0}}, 1},
		{"dense", [][]byte{{1, 0}, {0, 9}, {4, 4}}, 3},
		{"single byte changes count whole block", [][]byte{{0, 1}, {0, 0}}, 1},
		{"empty vector", nil, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Sparsity(tt.blocks); got != tt.wantGamma {
				t.Errorf("Sparsity = %d, want %d", got, tt.wantGamma)
			}
			if got, want := IsZero(tt.blocks), tt.wantGamma == 0; got != want {
				t.Errorf("IsZero = %v, want %v", got, want)
			}
		})
	}
}

func TestSparsityMatchesPaperExample(t *testing.T) {
	// Section IV-C: a 3KB object as 3 blocks of 1KB; modifying only the
	// first 1KB gives a 1-sparse delta.
	b, err := NewBlocking(3, 1024)
	if err != nil {
		t.Fatal(err)
	}
	v1 := make([]byte, 3*1024)
	for i := range v1 {
		v1[i] = byte(i)
	}
	v2 := append([]byte(nil), v1...)
	v2[100] ^= 0xFF
	v2[900] ^= 0x0F
	b1, err := b.Split(v1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := b.Split(v2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Compute(b1, b2)
	if err != nil {
		t.Fatal(err)
	}
	if got := Sparsity(d); got != 1 {
		t.Errorf("gamma = %d, want 1", got)
	}
	if !isZeroBlock(d[1]) || !isZeroBlock(d[2]) {
		t.Error("blocks 1 and 2 changed")
	}
}

func TestEqual(t *testing.T) {
	a := [][]byte{{1}, {2}}
	tests := []struct {
		name string
		b    [][]byte
		want bool
	}{
		{"identical", [][]byte{{1}, {2}}, true},
		{"different value", [][]byte{{1}, {3}}, false},
		{"different count", [][]byte{{1}}, false},
		{"different size", [][]byte{{1}, {2, 0}}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Equal(a, tt.b); got != tt.want {
				t.Errorf("Equal = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestReadCost(t *testing.T) {
	k, maxSparse := 10, 4
	if got := ReadCost(0, k, maxSparse); got != 0 {
		t.Errorf("zero delta cost = %d, want 0", got)
	}
	if got := ReadCost(3, k, maxSparse); got != 6 {
		t.Errorf("sparse cost = %d, want 6", got)
	}
	if got := ReadCost(5, k, maxSparse); got != k {
		t.Errorf("dense cost = %d, want %d", got, k)
	}
}
