package headerspace_test

import (
	"math/rand"
	"testing"

	hs "repro/internal/headerspace"
	"repro/internal/wire"
)

// Header.Subtract must equal the complement-and-intersect-and-compact
// reference term for term, in the same order, on overlapping pairs at
// small widths and at the full packet-header width.
func TestSubtractMatchesComplementReference(t *testing.T) {
	const pairs = 100_000
	r := rand.New(rand.NewSource(1))
	for n := 0; n < pairs; n++ {
		width := 1 + r.Intn(100)
		if n%10 == 0 {
			width = wire.HeaderWidth
		}
		h, o := hs.RandOverlappingPair(r, width)
		got, want := h.Subtract(o).Terms(), h.SubtractViaComplement(o).Terms()
		if len(got) != len(want) {
			t.Fatalf("%s \\ %s: %d terms, reference %d", h, o, len(got), len(want))
		}
		for i := range got {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%s \\ %s: term %d = %s, reference %s", h, o, i, got[i], want[i])
			}
		}
	}
}
