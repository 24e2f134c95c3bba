package headerspace

import (
	"sort"
)

// Space is a union of wildcard expressions over a common width. The zero
// value denotes the empty set of width 0; construct with NewSpace or the
// set operations.
//
// Invariant: no term is empty. Every constructor and operation drops the
// empty terms it would produce, so a space is empty exactly when it has no
// terms and IsEmpty never scans a term.
type Space struct {
	width int
	terms []Header
}

// NewSpace returns the space containing exactly the given headers.
// All headers must share a width; empty headers are dropped.
func NewSpace(width int, hs ...Header) Space {
	s := Space{width: width}
	for _, h := range hs {
		if h.width == width && !h.IsEmpty() {
			s.terms = append(s.terms, h.Clone())
		}
	}
	return s
}

// FullSpace returns the space matching every packet of the given width.
// Width 0 has no packet to match.
func FullSpace(width int) Space {
	if width == 0 {
		return Space{}
	}
	return Space{width: width, terms: []Header{AllX(width)}}
}

// EmptySpace returns the empty space of the given width.
func EmptySpace(width int) Space {
	return Space{width: width}
}

// Terms returns a copy of the wildcard expressions in the union.
func (s Space) Terms() []Header {
	out := make([]Header, len(s.terms))
	for i, t := range s.terms {
		out[i] = t.Clone()
	}
	return out
}

// Size returns the number of union terms (not the number of packets).
func (s Space) Size() int { return len(s.terms) }

// IsEmpty reports whether the space matches no packet.
func (s Space) IsEmpty() bool { return len(s.terms) == 0 }

// Clone returns a deep copy.
func (s Space) Clone() Space {
	return Space{width: s.width, terms: s.Terms()}
}

// Union returns s ∪ o.
func (s Space) Union(o Space) Space {
	w := s.width
	if w == 0 {
		w = o.width
	}
	out := Space{width: w}
	out.terms = append(out.terms, s.Terms()...)
	for _, t := range o.terms {
		if t.width == w {
			out.terms = append(out.terms, t.Clone())
		}
	}
	return out.Compact()
}

// IntersectHeader returns s ∩ {h}. Terms h does not overlap cost nothing.
func (s Space) IntersectHeader(h Header) Space {
	out := Space{width: s.width}
	for _, a := range s.terms {
		if a.Overlaps(h) {
			x, _ := a.Intersect(h) // Overlaps implies equal widths
			out.terms = append(out.terms, x)
		}
	}
	return out
}

// SubtractHeader returns s \ {h}, uncompacted. Headers are immutable, so
// terms h does not overlap are shared with s, not copied; when h overlaps
// no term the result is s itself.
func (s Space) SubtractHeader(h Header) Space {
	var out []Header
	for i, a := range s.terms {
		if !a.Overlaps(h) {
			if out != nil {
				out = append(out, a)
			}
			continue
		}
		if out == nil {
			out = append(make([]Header, 0, len(s.terms)), s.terms[:i]...)
		}
		out = append(out, a.Subtract(h).terms...)
	}
	if out == nil {
		return s
	}
	return Space{width: s.width, terms: out}
}

// residual computes s \ o, uncompacted and sharing s's terms. It serves
// read-only predicates (Covers, Equal) that discard the result after an
// emptiness check — the reachability loop-detection scan calls Covers once
// per visited hop.
func (s Space) residual(o Space) Space {
	out := s
	for _, b := range o.terms {
		if out.IsEmpty() {
			break
		}
		out = out.SubtractHeader(b)
	}
	return out
}

// Covers reports whether every packet in o is in s.
func (s Space) Covers(o Space) bool {
	// Fast path: every term of o already inside a single term of s.
	allSingle := true
	for _, t := range o.terms {
		single := false
		for _, st := range s.terms {
			if st.Covers(t) {
				single = true
				break
			}
		}
		if !single {
			allSingle = false
			break
		}
	}
	if allSingle {
		return true
	}
	return o.residual(s).IsEmpty()
}

// Overlaps reports whether s and o share at least one packet.
func (s Space) Overlaps(o Space) bool {
	for _, a := range s.terms {
		for _, b := range o.terms {
			if a.Overlaps(b) {
				return true
			}
		}
	}
	return false
}

// Compact removes subsumed terms and merges pairs of terms that differ in
// exactly one concrete bit. It returns a space equal to s with at most as
// many terms.
func (s Space) Compact() Space {
	terms := append([]Header(nil), s.terms...)
	// Sort widest (most wildcards) first so subsumption removal keeps the
	// most general terms.
	sort.SliceStable(terms, func(i, j int) bool {
		return terms[i].CountWildcards() > terms[j].CountWildcards()
	})
	kept := terms[:0]
	for _, t := range terms {
		subsumed := false
		for _, k := range kept {
			if k.contains(t) {
				subsumed = true
				break
			}
		}
		if !subsumed {
			kept = append(kept, t)
		}
	}
	merged := mergeOnce(kept)
	for len(merged) < len(kept) {
		kept = merged
		merged = mergeOnce(kept)
	}
	return Space{width: s.width, terms: merged}
}

// mergeOnce performs one pass of merging term pairs that differ in exactly
// one bit where one has 0 and the other 1 (replaceable by x).
func mergeOnce(terms []Header) []Header {
	used := make([]bool, len(terms))
	var out []Header
	for i := 0; i < len(terms); i++ {
		if used[i] {
			continue
		}
		mergedAny := false
		for j := i + 1; j < len(terms); j++ {
			if used[j] {
				continue
			}
			if m, ok := tryMerge(terms[i], terms[j]); ok {
				out = append(out, m)
				used[i], used[j] = true, true
				mergedAny = true
				break
			}
		}
		if !mergedAny {
			out = append(out, terms[i])
			used[i] = true
		}
	}
	return out
}

// tryMerge merges two headers differing at exactly one position with
// complementary concrete bits.
func tryMerge(a, b Header) (Header, bool) {
	if a.width != b.width {
		return Header{}, false
	}
	at, mask := -1, uint64(0)
	for i, aw := range a.words {
		d := aw ^ b.words[i]
		if d == 0 {
			continue
		}
		// A complementary pair differs in both bits and is concrete in a.
		comp := d & (d >> 1) & fixedPairs(aw)
		if (d|d>>1)&loPairs != comp || comp&(comp-1) != 0 || at >= 0 {
			return Header{}, false
		}
		at, mask = i, comp|comp<<1
	}
	out := a.Clone()
	if at >= 0 {
		out.words[at] |= mask
	}
	return out, true
}
