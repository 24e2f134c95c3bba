package headerspace

import (
	"math/rand"
	"testing"
)

// randMaybeEmpty draws a random header that is empty (holds a z position)
// one time in four.
func randMaybeEmpty(r *rand.Rand, width int) Header {
	h := randHeader(r, width)
	if r.Intn(4) == 0 {
		h.setBitInPlace(r.Intn(width), BitZ)
	}
	return h
}

// randSpace draws a space of up to four random terms through NewSpace.
func randSpace(r *rand.Rand, width int) Space {
	hs := make([]Header, r.Intn(5))
	for i := range hs {
		hs[i] = randMaybeEmpty(r, width)
	}
	return NewSpace(width, hs...)
}

// TestSpaceHoldsNoEmptyTerm: every constructor and operation returns a
// space without an empty term, so IsEmpty can count terms instead of
// scanning them. Operands include empty headers, and rewrites write z.
func TestSpaceHoldsNoEmptyTerm(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	for _, width := range []int{1, 5, 32, 33, 64, 70} {
		for i := 0; i < 300; i++ {
			a, b := randSpace(r, width), randSpace(r, width)
			h := randMaybeEmpty(r, width)
			mask, value := randHeader(r, width), randMaybeEmpty(r, width)
			tf := NewTransferFunction(width)
			for p := 0; p < 3; p++ {
				if err := tf.AddRule(Rule{Priority: p, Match: randMaybeEmpty(r, width), Mask: mask, Value: value, OutPorts: []PortID{1, 2}}); err != nil {
					t.Fatal(err)
				}
			}
			check := func(name string, s Space) {
				for _, term := range s.terms {
					if term.IsEmpty() {
						t.Fatalf("width %d: %s returned an empty term in %v", width, name, s)
					}
				}
			}
			for _, em := range tf.Apply(a.Union(FullSpace(width)), 1) {
				check("Apply", em.Space)
			}
			for name, s := range map[string]Space{
				"NewSpace":        a,
				"FullSpace":       FullSpace(width),
				"EmptySpace":      EmptySpace(width),
				"IntersectHeader": a.IntersectHeader(h),
				"SubtractHeader":  a.SubtractHeader(h),
				"Subtract":        a.Subtract(b),
				"Intersect":       a.Intersect(b),
				"Union":           a.Union(b),
				"Compact":         a.Union(b).SubtractHeader(h).Compact(),
				"rewriteSpace":    rewriteSpace(a, mask, value),
				"Header.Subtract": h.Subtract(randMaybeEmpty(r, width)),
			} {
				check(name, s)
			}
		}
	}
}
