package headerspace

import (
	"math/rand"
	"strings"
	"testing"
)

func TestParseRoundTrip(t *testing.T) {
	cases := []string{"0", "1", "x", "10x", "xxxx", "1010x01x", "111000111000x"}
	for _, c := range cases {
		h, err := Parse(c)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c, err)
		}
		if got := h.String(); got != c {
			t.Errorf("Parse(%q).String() = %q", c, got)
		}
		if h.Width() != len(c) {
			t.Errorf("Parse(%q).Width() = %d, want %d", c, h.Width(), len(c))
		}
	}
}

func TestParseSeparatorsAndAliases(t *testing.T) {
	h, err := Parse("10_X* 0")
	if err != nil {
		t.Fatal(err)
	}
	if got := h.String(); got != "10xx0" {
		t.Errorf("got %q, want 10xx0", got)
	}
}

func TestParseInvalid(t *testing.T) {
	if _, err := Parse("10q"); err == nil {
		t.Error("expected error for invalid character")
	}
}

func TestBitAccess(t *testing.T) {
	h := MustParse("10x")
	// String is MSB first: bit2=1, bit1=0, bit0=x.
	if h.Bit(2) != Bit1 || h.Bit(1) != Bit0 || h.Bit(0) != BitX {
		t.Errorf("bits = %v %v %v", h.Bit(2), h.Bit(1), h.Bit(0))
	}
	if h.Bit(-1) != BitZ || h.Bit(3) != BitZ {
		t.Error("out-of-range bits should read z")
	}
}

func TestSetBit(t *testing.T) {
	h := AllX(4)
	h2 := h.SetBit(0, Bit1).SetBit(3, Bit0)
	if got := h2.String(); got != "0xx1" {
		t.Errorf("got %q, want 0xx1", got)
	}
	// Original unchanged.
	if got := h.String(); got != "xxxx" {
		t.Errorf("original mutated: %q", got)
	}
}

func TestIntersect(t *testing.T) {
	cases := []struct {
		a, b, want string
		empty      bool
	}{
		{"1x", "x0", "10", false},
		{"1x", "0x", "", true},
		{"xxx", "101", "101", false},
		{"1x0", "1x0", "1x0", false},
	}
	for _, c := range cases {
		got, err := MustParse(c.a).Intersect(MustParse(c.b))
		if err != nil {
			t.Fatal(err)
		}
		if got.IsEmpty() != c.empty {
			t.Errorf("%s ∩ %s empty=%v, want %v", c.a, c.b, got.IsEmpty(), c.empty)
			continue
		}
		if !c.empty && got.String() != c.want {
			t.Errorf("%s ∩ %s = %s, want %s", c.a, c.b, got, c.want)
		}
	}
}

func TestIntersectWidthMismatch(t *testing.T) {
	if _, err := MustParse("1").Intersect(MustParse("10")); err == nil {
		t.Error("want ErrWidthMismatch")
	}
}

func TestCovers(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"xx", "10", true},
		{"1x", "10", true},
		{"10", "1x", false},
		{"10", "10", true},
		{"0x", "1x", false},
	}
	for _, c := range cases {
		if got := MustParse(c.a).Covers(MustParse(c.b)); got != c.want {
			t.Errorf("%s covers %s = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	if !AllX(3).Covers(Empty(3)) {
		t.Error("anything covers empty")
	}
}

func TestComplement(t *testing.T) {
	h := MustParse("1x")
	comp := h.Complement()
	// Complement of 1x is 0x.
	if !comp.CoversHeader(MustParse("0x")) {
		t.Errorf("complement %s should cover 0x", comp)
	}
	if comp.Overlaps(NewSpace(2, h)) {
		t.Errorf("complement overlaps original: %s", comp)
	}
	// Union of h and complement is full.
	if !comp.UnionHeader(h).Equal(FullSpace(2)) {
		t.Error("h ∪ ¬h != full")
	}
}

func TestComplementOfEmpty(t *testing.T) {
	comp := Empty(3).Complement()
	if !comp.Equal(FullSpace(3)) {
		t.Errorf("¬∅ = %s, want full", comp)
	}
}

func TestSubtract(t *testing.T) {
	// xx \ 1x = 0x
	diff := MustParse("xx").Subtract(MustParse("1x"))
	if !diff.Equal(NewSpace(2, MustParse("0x"))) {
		t.Errorf("xx \\ 1x = %s, want {0x}", diff)
	}
	// 10 \ 10 = empty
	if !MustParse("10").Subtract(MustParse("10")).IsEmpty() {
		t.Error("h \\ h should be empty")
	}
	// 1x \ 0x = 1x (disjoint)
	diff = MustParse("1x").Subtract(MustParse("0x"))
	if !diff.Equal(NewSpace(2, MustParse("1x"))) {
		t.Errorf("1x \\ 0x = %s, want {1x}", diff)
	}
}

func TestMatchesValue(t *testing.T) {
	h := MustParse("1x0")
	// Value bits index 0 = LSB: 1x0 matches 100 (4) and 110 (6).
	if !h.MatchesValue([]byte{0, 0, 1}) { // binary 100
		t.Error("1x0 should match 100")
	}
	if !h.MatchesValue([]byte{0, 1, 1}) { // binary 110
		t.Error("1x0 should match 110")
	}
	if h.MatchesValue([]byte{1, 0, 1}) { // binary 101
		t.Error("1x0 should not match 101")
	}
	if h.MatchesValue([]byte{0, 0}) {
		t.Error("wrong length should not match")
	}
}

func TestFromValueMaskAndExtract(t *testing.T) {
	// 8-bit header, field at offset 2 width 4, value 0b1010, full mask.
	h := FromValueMask(8, 2, 4, 0b1010, 0b1111)
	if got := h.String(); got != "xx1010xx" {
		t.Errorf("got %q, want xx1010xx", got)
	}
	v, ok := h.ExtractValue(2, 4)
	if !ok || v != 0b1010 {
		t.Errorf("ExtractValue = %b, %v", v, ok)
	}
	// Partial mask wildcards unmasked bits.
	h2 := FromValueMask(8, 0, 4, 0b1111, 0b0101)
	if got := h2.String(); got != "xxxxx1x1" {
		t.Errorf("got %q, want xxxxx1x1", got)
	}
}

func TestRewrite(t *testing.T) {
	h := MustParse("xx10")
	mask := MustParse("1100")
	val := MustParse("01xx")
	got, err := h.Rewrite(mask, val)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != "0110" {
		t.Errorf("rewrite = %q, want 0110", got)
	}
}

func TestIsEmptyDetectsZ(t *testing.T) {
	h := AllX(5).SetBit(2, BitZ)
	if !h.IsEmpty() {
		t.Error("header with z bit must be empty")
	}
	if !Empty(5).IsEmpty() {
		t.Error("Empty() must be empty")
	}
	if AllX(5).IsEmpty() {
		t.Error("AllX must not be empty")
	}
}

func TestWideHeaders(t *testing.T) {
	// Exercise multi-word paths (>32 ternary bits).
	w := 228
	h := AllX(w).SetBit(0, Bit1).SetBit(100, Bit0).SetBit(227, Bit1)
	if h.Bit(0) != Bit1 || h.Bit(100) != Bit0 || h.Bit(227) != Bit1 {
		t.Error("multi-word set/get failed")
	}
	if h.IsEmpty() {
		t.Error("wide header should not be empty")
	}
	other := AllX(w).SetBit(100, Bit1)
	x, err := h.Intersect(other)
	if err != nil {
		t.Fatal(err)
	}
	if !x.IsEmpty() {
		t.Error("conflicting bit 100 should empty the intersection")
	}
	if h.CountWildcards() != w-3 {
		t.Errorf("wildcards = %d, want %d", h.CountWildcards(), w-3)
	}
}

func TestStringEmpty(t *testing.T) {
	if !strings.Contains(Empty(4).String(), "empty") {
		t.Errorf("empty header string: %q", Empty(4).String())
	}
}

func TestEqualEmptyForms(t *testing.T) {
	a := Empty(4)
	b := AllX(4).SetBit(1, BitZ)
	if !a.Equal(b) {
		t.Error("two empty headers must be Equal")
	}
	if a.Equal(Empty(5)) {
		t.Error("different widths are never equal")
	}
}

// TestOverlapsMatchesIntersectAndAllocatesNothing pins Overlaps to the
// emptiness of Intersect on widths that end inside, at and past a word
// boundary, and checks it builds nothing.
func TestOverlapsMatchesIntersectAndAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, width := range []int{1, 12, 31, 32, 33, 64, 100, 256} {
		for i := 0; i < 200; i++ {
			a, b := randHeader(r, width), randHeader(r, width)
			x, err := a.Intersect(b)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := a.Overlaps(b), !x.IsEmpty(); got != want {
				t.Fatalf("width %d: %v.Overlaps(%v) = %v, intersection empty = %v", width, a, b, got, !want)
			}
		}
	}
	if AllX(8).Overlaps(AllX(9)) {
		t.Error("headers of different widths overlap")
	}
	if AllX(0).Overlaps(AllX(0)) {
		t.Error("zero-width headers overlap")
	}
	a, b := randHeader(r, 256), AllX(256)
	if n := testing.AllocsPerRun(100, func() { a.Overlaps(b) }); n != 0 {
		t.Errorf("Overlaps allocated %v times per call, want 0", n)
	}
}
