// Package headerspace implements the Header Space Analysis (HSA) algebra of
// Kazemian, Varghese and McKeown (NSDI'12), which RVaaS uses as its logical
// data-plane verification engine.
//
// A header is a ternary bit vector: every bit position is 0, 1 or x
// (wildcard). A Space is a union of such vectors. Transfer functions model
// the match/rewrite behaviour of switch rules, and the reachability engine
// in reach.go propagates spaces across a network of transfer functions.
package headerspace

import (
	"errors"
	"fmt"
	"math/bits"
)

// Ternary bit encoding, two physical bits (hi, lo) per header bit:
//
//	01 -> 0
//	10 -> 1
//	11 -> x (wildcard, matches both)
//	00 -> z (empty; the whole header denotes the empty set)
//
// With this encoding intersection is a bitwise AND, which is what makes HSA
// fast in practice.
const (
	bitsPerWord = 32 // ternary bits per uint64 word (2 physical bits each)
)

// Bit is the value of a single ternary position.
type Bit byte

// Ternary bit values. BitZ marks an empty (contradictory) position.
const (
	Bit0 Bit = iota + 1
	Bit1
	BitX
	BitZ
)

// ErrWidthMismatch is returned when combining headers of different widths.
var ErrWidthMismatch = errors.New("headerspace: width mismatch")

// Header is a single ternary wildcard expression over Width() bits.
// The zero value is unusable; construct headers with NewHeader, AllX or
// Parse.
type Header struct {
	width int
	words []uint64
}

// AllX returns the header matching everything (all bits wildcarded).
func AllX(width int) Header {
	h := Header{width: width, words: make([]uint64, wordsFor(width))}
	for i := range h.words {
		h.words[i] = ^uint64(0)
	}
	h.maskTail()
	return h
}

// Filled returns a header with every position set to the given ternary bit.
func Filled(width int, b Bit) Header {
	var pattern uint64
	switch b {
	case Bit0:
		pattern = 0x5555555555555555
	case Bit1:
		pattern = 0xAAAAAAAAAAAAAAAA
	case BitX:
		pattern = ^uint64(0)
	}
	h := Header{width: width, words: make([]uint64, wordsFor(width))}
	for i := range h.words {
		h.words[i] = pattern
	}
	h.maskTail()
	return h
}

func wordsFor(width int) int {
	return (width + bitsPerWord - 1) / bitsPerWord
}

// maskTail zeroes the unused encoding bits past width so that comparisons
// and emptiness checks work word-wise.
func (h *Header) maskTail() {
	rem := h.width % bitsPerWord
	if rem == 0 || len(h.words) == 0 {
		return
	}
	keep := uint64(1)<<(uint(rem)*2) - 1
	h.words[len(h.words)-1] &= keep
}

// Width returns the number of ternary bits in the header.
func (h Header) Width() int { return h.width }

// Clone returns a deep copy of the header.
func (h Header) Clone() Header {
	out := Header{width: h.width, words: make([]uint64, len(h.words))}
	copy(out.words, h.words)
	return out
}

// SetBit sets position i to the given ternary value, returning a new header.
func (h Header) SetBit(i int, b Bit) Header {
	out := h.Clone()
	out.setBitInPlace(i, b)
	return out
}

func (h *Header) setBitInPlace(i int, b Bit) {
	if i < 0 || i >= h.width {
		return
	}
	shift := uint(i%bitsPerWord) * 2
	var enc uint64
	switch b {
	case Bit0:
		enc = 1
	case Bit1:
		enc = 2
	case BitX:
		enc = 3
	case BitZ:
		enc = 0
	}
	w := &h.words[i/bitsPerWord]
	*w = (*w &^ (3 << shift)) | (enc << shift)
}

// IsEmpty reports whether the header denotes the empty set, i.e. any
// position is z.
func (h Header) IsEmpty() bool {
	full := h.width / bitsPerWord
	for i := 0; i < full; i++ {
		if hasZPair(h.words[i], bitsPerWord) {
			return true
		}
	}
	rem := h.width % bitsPerWord
	if rem > 0 {
		if hasZPair(h.words[full], rem) {
			return true
		}
	}
	return h.width == 0
}

// hasZPair reports whether any of the first n ternary positions in word is
// encoded 00.
func hasZPair(word uint64, n int) bool {
	// A position is z iff both its bits are 0. Extract lo bits and hi bits.
	lo := word & 0x5555555555555555
	hi := (word >> 1) & 0x5555555555555555
	present := lo | hi // 1 in lo-position iff the ternary bit is non-z
	want := uint64(1)<<(uint(n)*2) - 1
	want &= 0x5555555555555555
	return present&want != want
}

// Intersect returns the header matching exactly the packets matched by both
// h and o. The result may be empty.
func (h Header) Intersect(o Header) (Header, error) {
	if h.width != o.width {
		return Header{}, ErrWidthMismatch
	}
	out := Header{width: h.width, words: make([]uint64, len(h.words))}
	for i := range h.words {
		out.words[i] = h.words[i] & o.words[i]
	}
	return out, nil
}

// Overlaps reports whether h and o match at least one common packet: the
// emptiness test of Intersect, word by word, without building the
// intersection.
func (h Header) Overlaps(o Header) bool {
	if h.width != o.width || h.width == 0 {
		return false
	}
	full := h.width / bitsPerWord
	for i := 0; i < full; i++ {
		if hasZPair(h.words[i]&o.words[i], bitsPerWord) {
			return false
		}
	}
	if rem := h.width % bitsPerWord; rem > 0 {
		return !hasZPair(h.words[full]&o.words[full], rem)
	}
	return true
}

// Covers reports whether every packet matched by o is matched by h
// (h ⊇ o). An empty o is covered by everything.
func (h Header) Covers(o Header) bool {
	if h.width != o.width {
		return false
	}
	return o.IsEmpty() || h.contains(o)
}

// contains is Covers for a non-empty o of h's width, as every term of a
// Space is: h covers o iff o ∩ h == o at every position, i.e. o's encoding
// bits are a subset of h's.
func (h Header) contains(o Header) bool {
	for i := range h.words {
		if o.words[i]&h.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Pair masks over a word: loPairs has the low encoding bit of every
// position set. fixedPairs, onePairs and wildPairs mark (at that low bit)
// the positions holding 0/1, 1 and x respectively.
const loPairs = 0x5555555555555555

func fixedPairs(w uint64) uint64 { return (w ^ w>>1) & loPairs }

func onePairs(w uint64) uint64 { return w >> 1 &^ w & loPairs }

func wildPairs(w uint64) uint64 { return w & (w >> 1) & loPairs }

// Subtract returns h minus o as a Space of pairwise-disjoint terms. For each
// position where o is concrete and h is x, in ascending order, it emits h
// with that position set against o and every earlier such position set to
// o's value; the wildcard count falls by one per term and no two terms
// differ in one complementary bit alone, so the result is already compact.
// The terms share one backing array. A disjoint o returns {h}.
func (h Header) Subtract(o Header) Space {
	if !h.Overlaps(o) {
		if h.IsEmpty() {
			return Space{width: h.width}
		}
		return Space{width: h.width, terms: []Header{h}}
	}
	n := 0
	for i, w := range o.words {
		n += bits.OnesCount64(fixedPairs(w) & wildPairs(h.words[i]))
	}
	if n == 0 {
		return Space{width: h.width} // h ⊆ o
	}
	nw := len(h.words)
	backing := make([]uint64, n*nw)
	terms := make([]Header, 0, n)
	prev, prevWord, prevMask := h.words, 0, uint64(0)
	for i, w := range o.words {
		for c := fixedPairs(w) & wildPairs(h.words[i]); c != 0; c &= c - 1 {
			m := uint64(3) << bits.TrailingZeros64(c)
			k := len(terms) * nw
			t := backing[k : k+nw : k+nw]
			copy(t, prev)
			t[prevWord] = t[prevWord]&^prevMask | o.words[prevWord]&prevMask
			t[i] = t[i]&^m | (w^m)&m
			terms = append(terms, Header{width: h.width, words: t})
			prev, prevWord, prevMask = t, i, m
		}
	}
	return Space{width: h.width, terms: terms}
}

// CountWildcards returns the number of x positions.
func (h Header) CountWildcards() int {
	n := 0
	for _, w := range h.words {
		n += bits.OnesCount64(wildPairs(w))
	}
	return n
}

// Parse builds a header from an MSB-first string of '0', '1', 'x'/'X' and
// '*' characters. Underscores and spaces are ignored as separators.
func Parse(s string) (Header, error) {
	cleaned := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c == '_' || c == ' ' {
			continue
		}
		cleaned = append(cleaned, c)
	}
	h := AllX(len(cleaned))
	for i, c := range cleaned {
		pos := len(cleaned) - 1 - i // MSB-first input
		switch c {
		case '0':
			h.setBitInPlace(pos, Bit0)
		case '1':
			h.setBitInPlace(pos, Bit1)
		case 'x', 'X', '*':
			h.setBitInPlace(pos, BitX)
		default:
			return Header{}, fmt.Errorf("headerspace: invalid character %q at %d", c, i)
		}
	}
	return h, nil
}

// MustParse is Parse that panics on error; for tests and constants.
func MustParse(s string) Header {
	h, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return h
}

// FromValueMask builds a header where mask bits set to 1 force the
// corresponding value bit and mask bits 0 are wildcards. Only the low
// `width` bits are used. Bit 0 of value/mask is header bit `offset`.
func FromValueMask(total, offset, width int, value, mask uint64) Header {
	h := AllX(total)
	for i := 0; i < width; i++ {
		if mask>>uint(i)&1 == 0 {
			continue
		}
		if value>>uint(i)&1 == 1 {
			h.setBitInPlace(offset+i, Bit1)
		} else {
			h.setBitInPlace(offset+i, Bit0)
		}
	}
	return h
}

// Rewrite returns a copy of h where every position with mask bit 1 is set to
// the corresponding bit of value. mask/value are headers of the same width:
// mask positions that are Bit1 are rewritten, everything else passes
// through. value must be concrete (0/1) at rewritten positions.
func (h Header) Rewrite(mask, value Header) (Header, error) {
	if h.width != mask.width || h.width != value.width {
		return Header{}, ErrWidthMismatch
	}
	out := h.Clone()
	for i, mw := range mask.words {
		sel := onePairs(mw)
		sel |= sel << 1
		out.words[i] = out.words[i]&^sel | value.words[i]&sel
	}
	return out, nil
}
