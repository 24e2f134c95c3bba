package headerspace

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
