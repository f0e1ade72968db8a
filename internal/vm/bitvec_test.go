package vm

import "testing"

// naiveNextClear is the per-page Get loop NextClear must match.
func naiveNextClear(b *BitVector, page, end int64) int64 {
	for p := page; p < end; p++ {
		if !b.Get(p) {
			return p
		}
	}
	return end
}

func TestNextClearEmptyRange(t *testing.T) {
	b := newBitVector(256)
	if got := b.NextClear(10, 10); got != 10 {
		t.Fatalf("NextClear(10,10) = %d, want 10", got)
	}
	if got := b.NextClear(20, 10); got != 10 {
		t.Fatalf("NextClear(20,10) = %d, want end 10", got)
	}
}

func TestNextClearAllSet(t *testing.T) {
	b := newBitVector(256)
	b.SetRange(0, 256)
	if got := b.NextClear(0, 256); got != 256 {
		t.Fatalf("NextClear over all-set = %d, want end 256", got)
	}
	// A sub-range of an all-set vector likewise finds nothing.
	if got := b.NextClear(63, 130); got != 130 {
		t.Fatalf("NextClear(63,130) over all-set = %d, want 130", got)
	}
}

func TestNextClearWordBoundary(t *testing.T) {
	b := newBitVector(256)
	// Set exactly bits [60, 68): the clear run resumes past a word boundary.
	b.SetRange(60, 8)
	if got := b.NextClear(60, 256); got != 68 {
		t.Fatalf("NextClear(60,256) = %d, want 68", got)
	}
	// Starting inside the set run, in the second word.
	if got := b.NextClear(65, 256); got != 68 {
		t.Fatalf("NextClear(65,256) = %d, want 68", got)
	}
	// A clear hole at the boundary itself is found.
	b2 := newBitVector(256)
	b2.SetRange(0, 64)
	b2.SetRange(65, 191)
	if got := b2.NextClear(0, 256); got != 64 {
		t.Fatalf("NextClear with hole at 64 = %d, want 64", got)
	}
}

func TestNextClearLastWordPartial(t *testing.T) {
	// 200 pages: the last vector word covers bits 192..199 only; the
	// word's unused high bits are clear and must not leak below end.
	b := newBitVector(200)
	b.SetRange(0, 200)
	if got := b.NextClear(0, 200); got != 200 {
		t.Fatalf("NextClear over full short vector = %d, want 200", got)
	}
	b.Clear(199)
	if got := b.NextClear(190, 200); got != 199 {
		t.Fatalf("NextClear finds last partial-word bit: got %d, want 199", got)
	}
}

func TestNextClearMatchesGetLoop(t *testing.T) {
	b := newBitVector(300)
	// A deterministic ragged pattern crossing several word boundaries.
	for p := int64(0); p < 300; p++ {
		if p%7 < 4 || (p >= 120 && p < 140) {
			b.Set(p)
		}
	}
	for _, r := range [][2]int64{{0, 300}, {3, 65}, {63, 64}, {64, 200}, {120, 140}, {121, 139}, {250, 300}} {
		for p := r[0]; p <= r[1]; p++ {
			want := naiveNextClear(b, p, r[1])
			if got := b.NextClear(p, r[1]); got != want {
				t.Fatalf("NextClear(%d,%d) = %d, want %d", p, r[1], got, want)
			}
		}
	}
}

func TestNextClearCoarseGranularity(t *testing.T) {
	// Force pagesPerBit > 1: 100k pages over 32768 bits gives ppb = 4.
	b := newBitVector(100_000)
	if b.PagesPerBit() < 2 {
		t.Fatalf("pagesPerBit = %d, want coarse vector", b.PagesPerBit())
	}
	b.SetRange(0, 40) // covers bits 0..9 entirely
	for p := int64(0); p < 48; p++ {
		want := naiveNextClear(b, p, 48)
		if got := b.NextClear(p, 48); got != want {
			t.Fatalf("coarse NextClear(%d,48) = %d, want %d", p, got, want)
		}
	}
	// The answer is clamped to the query start even when the covering
	// clear bit begins earlier.
	b2 := newBitVector(100_000)
	ppb := b2.PagesPerBit()
	if got := b2.NextClear(ppb+1, 4*ppb); got != ppb+1 {
		t.Fatalf("coarse NextClear clamp = %d, want %d", got, ppb+1)
	}
}

func TestSetRangeMatchesSetLoop(t *testing.T) {
	check := func(total, page, n int64) {
		t.Helper()
		a, b := newBitVector(total), newBitVector(total)
		a.SetRange(page, n)
		for p := page; p < page+n; p++ {
			b.Set(p)
		}
		for p := int64(0); p < total; p++ {
			if a.Get(p) != b.Get(p) {
				t.Fatalf("SetRange(%d,%d) total %d: bit for page %d = %v, want %v",
					page, n, total, p, a.Get(p), b.Get(p))
			}
		}
	}
	check(256, 0, 0)    // empty range is a no-op
	check(256, 10, -1)  // negative too
	check(256, 5, 3)    // inside one word
	check(256, 60, 8)   // spans the first word boundary
	check(256, 0, 64)   // exactly one full word
	check(256, 1, 190)  // several full interior words plus ragged ends
	check(256, 64, 64)  // aligned full word, not the first
	check(200, 190, 10) // ends in the partial last word
	check(200, 0, 200)  // whole short vector
}

func TestSetRangeCoarseGranularity(t *testing.T) {
	a, b := newBitVector(100_000), newBitVector(100_000)
	if a.PagesPerBit() < 2 {
		t.Fatalf("pagesPerBit = %d, want coarse vector", a.PagesPerBit())
	}
	// An unaligned range whose ends share bits with neighboring pages.
	page, n := a.PagesPerBit()+1, 11*a.PagesPerBit()-2
	a.SetRange(page, n)
	for p := page; p < page+n; p++ {
		b.Set(p)
	}
	for p := int64(0); p < 20*a.PagesPerBit(); p++ {
		if a.Get(p) != b.Get(p) {
			t.Fatalf("coarse SetRange: bit for page %d = %v, want %v", p, a.Get(p), b.Get(p))
		}
	}
}
