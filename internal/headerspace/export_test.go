package headerspace

import (
	"fmt"
	"strings"
)

// Empty returns a header denoting the empty set (all bits z).
func Empty(width int) Header {
	return Header{width: width, words: make([]uint64, wordsFor(width))}
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

// Subtract returns s \ o. The result never shares term storage with s or o.
func (s Space) Subtract(o Space) Space {
	if len(o.terms) == 0 {
		return s.Clone()
	}
	// SubtractHeader is functional (it clones every surviving term), so the
	// first pass already detaches the result from s — no up-front deep copy.
	out := s
	for _, b := range o.terms {
		out = out.SubtractHeader(b)
		if out.IsEmpty() {
			return EmptySpace(s.width)
		}
	}
	return out.Compact()
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
