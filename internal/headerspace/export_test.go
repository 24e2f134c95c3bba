package headerspace

import (
	"fmt"
	"math/rand"
	"strings"
)

// Empty returns a header denoting the empty set (all bits z).
func Empty(width int) Header {
	return Header{width: width, words: make([]uint64, wordsFor(width))}
}

// Bit returns the ternary value at position i (0 = least significant).
func (h Header) Bit(i int) Bit {
	if i < 0 || i >= h.width {
		return BitZ
	}
	word := h.words[i/bitsPerWord]
	shift := uint(i%bitsPerWord) * 2
	switch (word >> shift) & 3 {
	case 1:
		return Bit0
	case 2:
		return Bit1
	case 3:
		return BitX
	}
	return BitZ
}

// MatchesValue reports whether the concrete bit string v (v[i] in {0,1},
// index 0 = LSB) is matched by h.
func (h Header) MatchesValue(v []byte) bool {
	if len(v) != h.width {
		return false
	}
	for i := 0; i < h.width; i++ {
		switch h.Bit(i) {
		case Bit0:
			if v[i] != 0 {
				return false
			}
		case Bit1:
			if v[i] != 1 {
				return false
			}
		case BitZ:
			return false
		}
	}
	return true
}

// CoversHeader reports whether every packet matched by h is in s.
func (s Space) CoversHeader(h Header) bool {
	// Fast path: a single term covering h.
	for _, t := range s.terms {
		if t.Covers(h) {
			return true
		}
	}
	return NewSpace(h.width, h).residual(s).IsEmpty()
}

// MatchesValue reports whether the concrete bit string v is in the space.
func (s Space) MatchesValue(v []byte) bool {
	for _, t := range s.terms {
		if t.MatchesValue(v) {
			return true
		}
	}
	return false
}

// ExtractValue reads `width` concrete bits starting at offset. Wildcard
// positions read as 0. The second return is false if any read bit is z.
func (h Header) ExtractValue(offset, width int) (uint64, bool) {
	var v uint64
	for i := 0; i < width; i++ {
		switch h.Bit(offset + i) {
		case Bit1:
			v |= 1 << uint(i)
		case BitZ:
			return 0, false
		}
	}
	return v, true
}

// UnionHeader returns s ∪ {h}.
func (s Space) UnionHeader(h Header) Space {
	return s.Union(NewSpace(h.width, h))
}

// Rules returns a copy of the rule list in priority order.
func (tf *TransferFunction) Rules() []Rule {
	out := make([]Rule, len(tf.rules))
	copy(out, tf.rules)
	return out
}

// Equal reports whether the two headers are bit-identical. Two empty headers
// of the same width are considered equal even if their z positions differ.
func (h Header) Equal(o Header) bool {
	if h.width != o.width {
		return false
	}
	he, oe := h.IsEmpty(), o.IsEmpty()
	if he || oe {
		return he == oe
	}
	for i := range h.words {
		if h.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// Intersect returns s ∩ o by distributing over the union terms.
func (s Space) Intersect(o Space) Space {
	out := Space{width: s.width}
	for _, a := range s.terms {
		for _, b := range o.terms {
			x, err := a.Intersect(b)
			if err == nil && !x.IsEmpty() {
				out.terms = append(out.terms, x)
			}
		}
	}
	return out.Compact()
}

// Subtract returns s \ o, compacted.
func (s Space) Subtract(o Space) Space {
	return s.residual(o).Compact()
}

// Complement returns the set of packets NOT matched by h, as a union of
// pairwise-disjoint headers (one per non-wildcard position, with all lower
// fixed positions pinned to h's values).
func (h Header) Complement() Space {
	if h.IsEmpty() {
		return Space{width: h.width, terms: []Header{AllX(h.width)}}
	}
	var terms []Header
	prefix := AllX(h.width) // accumulates h's values at already-seen fixed bits
	for i := 0; i < h.width; i++ {
		b := h.Bit(i)
		if b != Bit0 && b != Bit1 {
			continue
		}
		flipped := Bit0
		if b == Bit0 {
			flipped = Bit1
		}
		terms = append(terms, prefix.SetBit(i, flipped))
		prefix.setBitInPlace(i, b)
	}
	return Space{width: h.width, terms: terms}
}

// SubtractViaComplement is the executable reference for Header.Subtract:
// intersect h with every term of o's complement, then compact.
func (h Header) SubtractViaComplement(o Header) Space {
	var terms []Header
	for _, c := range o.Complement().terms {
		x, err := h.Intersect(c)
		if err == nil && !x.IsEmpty() {
			terms = append(terms, x)
		}
	}
	return Space{width: h.width, terms: terms}.Compact()
}

// RandOverlappingPair draws two headers of the given width that share at
// least one packet. h's wildcard density is itself random, so the pairs
// range from h ⊆ o to differences with one term per position.
func RandOverlappingPair(r *rand.Rand, width int) (h, o Header) {
	h, o = AllX(width), AllX(width)
	fixed := r.Float64()
	for i := 0; i < width; i++ {
		if r.Float64() < fixed {
			h.setBitInPlace(i, Bit0+Bit(r.Intn(2)))
		}
		if r.Intn(3) == 0 {
			continue // o keeps x here
		}
		b := Bit0 + Bit(r.Intn(2))
		if hb := h.Bit(i); hb != BitX {
			b = hb // agree with h wherever both are concrete
		}
		o.setBitInPlace(i, b)
	}
	return h, o
}

// Equal reports set equality.
func (s Space) Equal(o Space) bool {
	return s.Covers(o) && o.Covers(s)
}

// String renders the space as "{term | term | ...}".
func (s Space) String() string {
	if s.IsEmpty() {
		return "{}"
	}
	parts := make([]string, 0, len(s.terms))
	for _, t := range s.terms {
		if !t.IsEmpty() {
			parts = append(parts, t.String())
		}
	}
	return "{" + strings.Join(parts, " | ") + "}"
}

// Add records a visited node with no slice information (unconstrained:
// treated as overlapping every delta, on any in-port). AddSliceAt is the
// precise form.
func (f Footprint) Add(id NodeID) {
	f.slices[id] = Space{}
	delete(f.inPorts, id)
}

// String renders the header MSB-first, e.g. "1x0" for width 3.
func (h Header) String() string {
	if h.IsEmpty() {
		return fmt.Sprintf("(empty/%d)", h.width)
	}
	var sb strings.Builder
	sb.Grow(h.width)
	for i := h.width - 1; i >= 0; i-- {
		sb.WriteString(h.Bit(i).String())
	}
	return sb.String()
}

// String returns "0", "1", "x" or "z".
func (b Bit) String() string {
	switch b {
	case Bit0:
		return "0"
	case Bit1:
		return "1"
	case BitX:
		return "x"
	case BitZ:
		return "z"
	}
	return "?"
}
