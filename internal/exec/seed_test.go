package exec

import (
	"math"
	"testing"

	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/sim"
	"repro/internal/stripefs"
)

// TestSeedAllocatesOnlyBackingPages checks that seeding fills the file's
// backing pages in place: one allocation per page of the array, no
// staging buffer, and the partial last page zero past the array's end.
func TestSeedAllocatesOnlyBackingPages(t *testing.T) {
	ps := hw.Default().PageSize
	pageElems := ps / ir.ElemSize
	prog := ir.NewProgram("seeded")
	a := prog.NewArrayF("a", prog.NewParam("n", 5*pageElems+pageElems/2, true))
	if err := prog.Resolve(ps); err != nil {
		t.Fatal(err)
	}
	const pages = 6

	// AllocsPerRun calls the function once to warm up and once to
	// measure, each time into a fresh file.
	fs := stripefs.New(sim.NewClock(), hw.Default(), nil)
	var files []*stripefs.File
	for i := 0; i < 2; i++ {
		f, err := fs.Create("seeded", pages)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	gen := func(i int64) float64 { return float64(i) + 0.5 }
	next := 0
	allocs := testing.AllocsPerRun(1, func() {
		SeedF64(files[next], ps, a, gen)
		next++
	})
	if allocs != pages {
		t.Errorf("seeding %d pages made %v allocations, want %d", pages, allocs, pages)
	}

	for p := int64(0); p < pages; p++ {
		words := files[1].PeekPage(p)
		for k, w := range words {
			i := p*pageElems + int64(k)
			want := uint64(0)
			if i < a.Elems {
				want = math.Float64bits(gen(i))
			}
			if w != want {
				t.Fatalf("page %d word %d = %#x, want %#x", p, k, w, want)
			}
		}
	}
}
