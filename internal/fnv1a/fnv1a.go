// Package fnv1a holds the FNV-1a mixing behind the simulator's content
// addresses: the step-graph digest (internal/nn), and the result-cache
// fingerprint and disk-tier schema hash (internal/core). It is the only
// copy of these helpers.
package fnv1a

import "math"

// Offset is the FNV-1a 64-bit offset basis, a hash's starting state.
const Offset = 14695981039346656037

const prime = 1099511628211

// mix folds the eight bytes of v into h, low byte first.
func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime
		v >>= 8
	}
	return h
}

// MixBytes folds the bytes of s into h, one multiply per byte.
func MixBytes[S ~string | ~[]byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

// Sum128 is a 128-bit digest.
type Sum128 struct{ Hi, Lo uint64 }

// Hash128 is a two-lane FNV-1a accumulator; the lanes mix the same
// input stream with different seeds and a per-word permutation, which
// is plenty of independence for a 128-bit cache address. Strings and
// byte slices are length-prefixed, so adjacent fields cannot run into
// each other.
type Hash128 struct{ hi, lo uint64 }

// New128 returns an empty accumulator.
func New128() Hash128 {
	return Hash128{hi: Offset, lo: Offset ^ 0x9e3779b97f4a7c15}
}

// Uint64 mixes one word.
func (h *Hash128) Uint64(v uint64) {
	h.hi = mix(h.hi, v)
	h.lo = mix(h.lo, v*0x9e3779b97f4a7c15+1)
}

// Int mixes an int as a 64-bit word.
func (h *Hash128) Int(v int) { h.Uint64(uint64(int64(v))) }

// Float mixes a float64 by its bits.
func (h *Hash128) Float(v float64) { h.Uint64(math.Float64bits(v)) }

// Bool mixes a bool as 0 or 1.
func (h *Hash128) Bool(v bool) {
	if v {
		h.Uint64(1)
	} else {
		h.Uint64(0)
	}
}

// Str mixes a length-prefixed string.
func (h *Hash128) Str(s string) {
	h.Int(len(s))
	h.hi = MixBytes(h.hi, s)
	h.lo = MixBytes(h.lo, s)
}

// Bytes mixes a length-prefixed byte slice; it hashes exactly as Str
// does on the same bytes.
func (h *Hash128) Bytes(b []byte) {
	h.Int(len(b))
	h.hi = MixBytes(h.hi, b)
	h.lo = MixBytes(h.lo, b)
}

// Sum128 mixes another digest.
func (h *Hash128) Sum128(s Sum128) {
	h.Uint64(s.Hi)
	h.Uint64(s.Lo)
}

// Sum returns the digest of everything mixed so far.
func (h *Hash128) Sum() Sum128 { return Sum128{Hi: h.hi, Lo: h.lo} }
