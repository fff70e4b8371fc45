//go:build !amd64

package gf

// Architectures without an accelerated multiply path report zero bytes
// handled, for slices and block products alike; the callers then run the
// scalar row loop, which measures faster than composing the nibble lookups
// byte-wise in pure Go.

const hasAVX2, hasGFNI = false, false

func mulBlocksFused(c []byte, src, dst [][]byte, lo, hi int) int { return 0 }

func mulSliceAccel(c byte, dst, src []byte) int { return 0 }

func mulAddSliceAccel(c byte, dst, src []byte) int { return 0 }
