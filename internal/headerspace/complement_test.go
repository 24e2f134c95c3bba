package headerspace

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Subtract's terms must be pairwise disjoint and disjoint from the
// subtrahend — the property the reachability engine's term-count bound
// relies on (see DESIGN.md).
func TestComplementTermsDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		h, o := RandOverlappingPair(rr, quickWidth)
		terms := h.Subtract(o).Terms()
		for i := 0; i < len(terms); i++ {
			if terms[i].Overlaps(o) || !h.Covers(terms[i]) {
				return false
			}
			for j := i + 1; j < len(terms); j++ {
				if terms[i].Overlaps(terms[j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

// Complement term count equals the number of fixed bits.
func TestComplementTermCount(t *testing.T) {
	h := MustParse("10xx01")
	if got := h.Complement().Size(); got != 4 {
		t.Errorf("terms = %d, want 4", got)
	}
	if got := AllX(6).Complement().Size(); got != 0 {
		t.Errorf("complement of full = %d terms, want 0", got)
	}
}

// Re-subtracting the same match must be idempotent in term count: the
// pattern that occurs when the same rule shadows a flow at every switch
// along a path.
func TestRepeatedSubtractionIdempotent(t *testing.T) {
	m := FromValueMask(32, 8, 16, 0x5AA5, 0xFFFF)
	s := FullSpace(32).SubtractHeader(m).Compact()
	first := s.Size()
	for i := 0; i < 10; i++ {
		s = s.SubtractHeader(m).Compact()
	}
	if s.Size() != first {
		t.Errorf("repeated subtraction grew %d -> %d terms", first, s.Size())
	}
}

// The interception-rule pattern (three near-identical magic-header matches,
// as RVaaS installs on every switch) must stay compact: the two UDP port
// matches share all but two bits, so the chain must not multiply.
func TestInterceptionPatternCompact(t *testing.T) {
	s := FullSpace(48)
	// proto=17 at [0,8), l4dst at [8,24), ethtype at [24,40).
	udp := uint64(17)
	for _, port := range []uint64{0x5AA5, 0x5AA7} {
		m, err := FromValueMask(48, 0, 8, udp, 0xFF).
			Intersect(FromValueMask(48, 8, 16, port, 0xFFFF))
		if err != nil {
			t.Fatal(err)
		}
		s = s.SubtractHeader(m).Compact()
	}
	probe := FromValueMask(48, 24, 16, 0x88B5, 0xFFFF)
	s = s.SubtractHeader(probe).Compact()
	// The DNF of three intersected complements is inherently a few hundred
	// terms; the regression guard is against the naive overlapping
	// decomposition, which multiplied this into many thousands.
	if s.Size() > 500 {
		t.Errorf("interception pattern grew to %d terms", s.Size())
	}
	if s.IsEmpty() {
		t.Error("pattern should not empty the space")
	}
}

// Equivalence with the membership oracle after a chain of operations.
func TestChainedOpsMembership(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a := randHeader(rr, quickWidth)
		b := randHeader(rr, quickWidth)
		c := randHeader(rr, quickWidth)
		// (a \ b) ∪ (b ∩ c)
		got := a.Subtract(b).Union(NewSpace(quickWidth, b).IntersectHeader(c))
		for trial := 0; trial < 24; trial++ {
			v := randValue(rr, quickWidth)
			want := (a.MatchesValue(v) && !b.MatchesValue(v)) ||
				(b.MatchesValue(v) && c.MatchesValue(v))
			if got.MatchesValue(v) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, quickCfg()); err != nil {
		t.Error(err)
	}
}

var allocSink Space

// The hot-path algebra allocates nothing for disjoint terms, and a
// subtraction allocates its term slice and one shared backing array.
func TestHeaderAlgebraAllocs(t *testing.T) {
	const w = 228
	h := FromValueMask(w, 0, 16, 0x0a01, 0xffff)
	disjoint := FromValueMask(w, 0, 16, 0x0a02, 0xffff)
	wide := FromValueMask(w, 8, 8, 0x0a, 0xff)
	s := NewSpace(w, h)
	tf := NewTransferFunction(w)
	for i, m := range []Header{disjoint, FromValueMask(w, 0, 8, 0x02, 0xff)} {
		if err := tf.AddRule(Rule{Priority: i, Match: m, OutPorts: []PortID{1}}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"Overlaps", 0, func() { _ = h.Overlaps(disjoint) }},
		{"IntersectHeader/disjoint", 0, func() { allocSink = s.IntersectHeader(disjoint) }},
		{"SubtractHeader/disjoint", 0, func() { allocSink = s.SubtractHeader(disjoint) }},
		{"Subtract/overlapping", 2, func() { allocSink = wide.Subtract(h) }},
		{"Apply/no match", 0, func() { _ = tf.Apply(s, 1) }},
	} {
		if got := testing.AllocsPerRun(100, c.f); got > c.max {
			t.Errorf("%s: %v allocs, want <= %v", c.name, got, c.max)
		}
	}
	if wide.Subtract(h).Size() != 8 {
		t.Fatalf("wide \\ h = %s, want 8 terms", wide.Subtract(h))
	}
}
