package gf

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestAddIsXORAndSelfInverse(t *testing.T) {
	f := func(a, b byte) bool {
		return Add(a, b) == a^b && Add(Add(a, b), b) == a && Sub(a, b) == Add(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulCommutativeExhaustive(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := a; b < 256; b++ {
			if got, want := Mul(byte(a), byte(b)), Mul(byte(b), byte(a)); got != want {
				t.Fatalf("Mul(%d,%d)=%d but Mul(%d,%d)=%d", a, b, got, b, a, want)
			}
		}
	}
}

func TestMulIdentityAndZeroExhaustive(t *testing.T) {
	for a := 0; a < 256; a++ {
		if got := Mul(byte(a), 1); got != byte(a) {
			t.Errorf("Mul(%d,1) = %d, want %d", a, got, a)
		}
		if got := Mul(byte(a), 0); got != 0 {
			t.Errorf("Mul(%d,0) = %d, want 0", a, got)
		}
	}
}

func TestMulAssociative(t *testing.T) {
	f := func(a, b, c byte) bool {
		return Mul(Mul(a, b), c) == Mul(a, Mul(b, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDistributivity(t *testing.T) {
	f := func(a, b, c byte) bool {
		return Mul(a, Add(b, c)) == Add(Mul(a, b), Mul(a, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestInvExhaustive(t *testing.T) {
	for a := 1; a < 256; a++ {
		inv := Inv(byte(a))
		if got := Mul(byte(a), inv); got != 1 {
			t.Fatalf("a*Inv(a) = %d for a=%d, want 1", got, a)
		}
	}
}

func TestDivExhaustive(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 1; b < 256; b++ {
			q := Div(byte(a), byte(b))
			if got := Mul(q, byte(b)); got != byte(a) {
				t.Fatalf("Div(%d,%d)*%d = %d, want %d", a, b, b, got, a)
			}
		}
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div(1,0) did not panic")
		}
	}()
	Div(1, 0)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

// TestTablesGeneratorHasFullOrder: the exp and log tables Div and the
// inverse table are built from are inverse bijections, and alpha = 0x02
// has multiplicative order 255.
func TestTablesGeneratorHasFullOrder(t *testing.T) {
	seen := make(map[byte]bool, 255)
	for i := 0; i < 255; i++ {
		seen[_tables.exp[i]] = true
	}
	if len(seen) != 255 || seen[0] {
		t.Fatalf("generator produced %d distinct non-zero powers, want 255", len(seen))
	}
	for a := 1; a < 256; a++ {
		if got := _tables.exp[_tables.log[a]]; got != byte(a) {
			t.Fatalf("exp[log[%d]] = %d", a, got)
		}
	}
}

func TestAddSlice(t *testing.T) {
	dst := []byte{1, 2, 3, 4}
	src := []byte{5, 6, 7, 0}
	AddSlice(dst, src)
	want := []byte{1 ^ 5, 2 ^ 6, 3 ^ 7, 4}
	if !bytes.Equal(dst, want) {
		t.Errorf("AddSlice = %v, want %v", dst, want)
	}
}

func TestMulSliceMatchesScalar(t *testing.T) {
	f := func(c byte, src []byte) bool {
		dst := make([]byte, len(src))
		MulSlice(c, dst, src)
		for i := range src {
			if dst[i] != Mul(c, src[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMulSliceSpecialCoefficients(t *testing.T) {
	src := []byte{9, 8, 7}
	dst := []byte{1, 1, 1}
	MulSlice(0, dst, src)
	if !bytes.Equal(dst, []byte{0, 0, 0}) {
		t.Errorf("MulSlice(0) = %v, want zeros", dst)
	}
	MulSlice(1, dst, src)
	if !bytes.Equal(dst, src) {
		t.Errorf("MulSlice(1) = %v, want %v", dst, src)
	}
}

func TestMulSliceAliasing(t *testing.T) {
	s := []byte{3, 5, 250}
	want := make([]byte, len(s))
	MulSlice(7, want, s)
	MulSlice(7, s, s)
	if !bytes.Equal(s, want) {
		t.Errorf("aliased MulSlice = %v, want %v", s, want)
	}
}

func TestMulAddSliceMatchesScalar(t *testing.T) {
	f := func(c byte, src []byte) bool {
		dst := make([]byte, len(src))
		for i := range dst {
			dst[i] = byte(i * 31)
		}
		want := make([]byte, len(src))
		copy(want, dst)
		for i := range src {
			want[i] ^= Mul(c, src[i])
		}
		MulAddSlice(c, dst, src)
		return bytes.Equal(dst, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDotSlice(t *testing.T) {
	a := []byte{1, 2, 3}
	b := []byte{4, 5, 6}
	want := Add(Add(Mul(1, 4), Mul(2, 5)), Mul(3, 6))
	if got := DotSlice(a, b); got != want {
		t.Errorf("DotSlice = %d, want %d", got, want)
	}
	if got := DotSlice(nil, nil); got != 0 {
		t.Errorf("DotSlice(nil,nil) = %d, want 0", got)
	}
}

func TestSliceLengthMismatchPanics(t *testing.T) {
	tests := []struct {
		name string
		fn   func()
	}{
		{"AddSlice", func() { AddSlice(make([]byte, 2), make([]byte, 3)) }},
		{"MulSlice", func() { MulSlice(3, make([]byte, 2), make([]byte, 3)) }},
		{"MulAddSlice", func() { MulAddSlice(3, make([]byte, 2), make([]byte, 3)) }},
		{"DotSlice", func() { DotSlice(make([]byte, 2), make([]byte, 3)) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s with mismatched lengths did not panic", tt.name)
				}
			}()
			tt.fn()
		})
	}
}
