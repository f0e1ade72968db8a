package exec

import (
	"math"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/stripefs"
)

// Nest-level edge cases for the kernel compiler, each run differentially
// against the closure oracle: zero-trip and single-iteration loops,
// bounds that clamp mid-page, reduction initial values, branch
// joins, NaN min/max semantics, and the register-overflow fallback.

func scalarRef(s ir.FScalar) ir.FExpr { return ir.FScalar{Slot: s.Slot, Name: s.Name} }

func TestNestZeroTrip(t *testing.T) {
	// Three shapes of empty loop — equal bounds, inverted bounds, and a
	// dynamically-empty inner loop — next to one loop that actually runs,
	// so the machine image is not trivially untouched. The kernel's
	// preheader guard must skip the induction-slot store entirely.
	const n = 2048
	mk := func() *ir.Program {
		p := ir.NewProgram("zerotrip")
		np := p.NewParam("n", n, true)
		a := p.NewArrayF("a", np)
		s := p.NewScalarF("s")
		i := p.NewLoopVar("i")
		j := p.NewLoopVar("j")
		k := p.NewLoopVar("k")
		p.Body = []ir.Stmt{
			ir.For(i, ir.Int(7), ir.Int(7), 1, // equal bounds: zero trips
				ir.StoreF(a, []ir.IExpr{i}, ir.Flt(-1))),
			ir.For(j, ir.Int(9), ir.Int(3), 1, // inverted bounds
				ir.StoreF(a, []ir.IExpr{j}, ir.Flt(-2))),
			ir.For(i, ir.Int(0), np, 1,
				ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, i)))),
			ir.For(i, ir.Int(0), ir.Int(4), 1, // inner loop empty per outer trip
				ir.For(k, i, ir.MinI(i, ir.Int(2)), 1,
					ir.StoreF(a, []ir.IExpr{k}, ir.Flt(-3)))),
		}
		return p
	}
	seed := func(f *stripefs.File, p *ir.Program) {
		SeedF64(f, hw.Default().PageSize, p.Arrays[0], func(i int64) float64 { return float64(i % 31) })
	}
	runDifferential(t, mk, 8, seed)
}

func TestNestSingleIteration(t *testing.T) {
	// One-trip loops: the back edge is never taken, so the preheader's
	// slot store is the only one, and reductions fold exactly one term.
	mk := func() *ir.Program {
		p := ir.NewProgram("onetrip")
		np := p.NewParam("n", 512, true)
		a := p.NewArrayF("a", np)
		s := p.NewScalarF("s")
		i := p.NewLoopVar("i")
		j := p.NewLoopVar("j")
		p.Body = []ir.Stmt{
			ir.For(i, ir.Int(3), ir.Int(4), 1,
				ir.For(j, i, ir.AddI(i, ir.Int(1)), 1,
					ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, ir.AddI(i, j)))),
					ir.StoreF(a, []ir.IExpr{j}, ir.MulF(scalarRef(s), ir.Flt(2))))),
		}
		return p
	}
	seed := func(f *stripefs.File, p *ir.Program) {
		SeedF64(f, hw.Default().PageSize, p.Arrays[0], func(i int64) float64 { return float64(i) / 3 })
	}
	env, _ := runDifferential(t, mk, 8, seed)
	want := 6.0 / 3 // a[i+j] = a[6], one trip with i=j=3
	found := false
	for _, f := range env.Floats {
		if f == want {
			found = true
		}
	}
	if !found {
		t.Fatalf("reduction %v not found in float slots %v", want, env.Floats)
	}
}

func TestNestBoundClampMidPageRun(t *testing.T) {
	// The loop bound lands partway through a page (min(n, m) with m not
	// page-aligned): the bytecode must stop exactly where the oracle
	// stops.
	pageElems := hw.Default().PageSize / ir.ElemSize
	n := 16 * pageElems
	m := 11*pageElems + pageElems/3
	mk := func() *ir.Program {
		p := ir.NewProgram("clamp")
		np := p.NewParam("n", n, true)
		mp := p.NewParam("m", m, true)
		a := p.NewArrayF("a", np)
		s := p.NewScalarF("s")
		i := p.NewLoopVar("i")
		p.Body = []ir.Stmt{
			ir.For(i, ir.Int(0), ir.MinI(np, mp), 1,
				ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, i))),
				ir.StoreF(a, []ir.IExpr{i}, ir.AddF(ir.LoadF(a, i), ir.Flt(1)))),
		}
		return p
	}
	seed := func(f *stripefs.File, p *ir.Program) {
		SeedF64(f, hw.Default().PageSize, p.Arrays[0], func(i int64) float64 { return float64(i % 17) })
	}
	runDifferential(t, mk, 8, seed)
}

func TestNestReductionInitialValue(t *testing.T) {
	// The accumulator starts from a computed non-zero value, and a second
	// reduction chains off the first's result.
	const n = 4096
	mk := func() *ir.Program {
		p := ir.NewProgram("redinit")
		np := p.NewParam("n", n, true)
		a := p.NewArrayF("a", np)
		s := p.NewScalarF("s")
		q := p.NewScalarF("q")
		i := p.NewLoopVar("i")
		p.Body = []ir.Stmt{
			ir.SetF(s, ir.Flt(2.25)),
			ir.For(i, ir.Int(0), np, 1,
				ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, i)))),
			ir.SetF(q, ir.MulF(scalarRef(s), ir.Flt(0.5))),
			ir.For(i, ir.Int(0), np, 1,
				ir.SetF(q, ir.AddF(scalarRef(q), ir.MulF(ir.LoadF(a, i), ir.Flt(3))))),
		}
		return p
	}
	seed := func(f *stripefs.File, p *ir.Program) {
		SeedF64(f, hw.Default().PageSize, p.Arrays[0], func(i int64) float64 { return 1 })
	}
	env, _ := runDifferential(t, mk, 8, seed)
	wantS := 2.25 + n
	wantQ := wantS/2 + 3*n
	okS, okQ := false, false
	for _, f := range env.Floats {
		if f == wantS {
			okS = true
		}
		if f == wantQ {
			okQ = true
		}
	}
	if !okS || !okQ {
		t.Fatalf("want s=%v q=%v somewhere in float slots %v", wantS, wantQ, env.Floats)
	}
}

func TestNestIfElseJoin(t *testing.T) {
	// Both branch arms write scalars and memory; after the join the loop
	// keeps using them, so the compiler's register invalidation at the
	// join must be exact.
	const n = 2048
	mk := func() *ir.Program {
		p := ir.NewProgram("branchy")
		np := p.NewParam("n", n, true)
		a := p.NewArrayF("a", np)
		s := p.NewScalarF("s")
		cnt := p.NewScalarI("cnt")
		i := p.NewLoopVar("i")
		p.Body = []ir.Stmt{
			ir.For(i, ir.Int(0), np, 1,
				ir.If{
					Cond: ir.CmpF{Op: ir.Gt, A: ir.LoadF(a, i), B: ir.Flt(0.5)},
					Then: []ir.Stmt{
						ir.SetI(cnt, ir.AddI(cnt, ir.Int(1))),
						ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, i))),
					},
					Else: []ir.Stmt{
						ir.StoreF(a, []ir.IExpr{i}, ir.SubF(ir.Flt(1), ir.LoadF(a, i))),
					},
				},
				ir.SetF(s, ir.AddF(scalarRef(s), ir.MulF(ir.LoadF(a, i), ir.Flt(0.25))))),
		}
		return p
	}
	seed := func(f *stripefs.File, p *ir.Program) {
		SeedF64(f, hw.Default().PageSize, p.Arrays[0], func(i int64) float64 { return float64(i%7) / 6 })
	}
	runDifferential(t, mk, 8, seed)
}

func TestNestFMinNaN(t *testing.T) {
	// The oracle's fmin is `x < y ? x : y`: a NaN on the LEFT loses (the
	// comparison is false, the right operand wins), so a NaN seeded
	// mid-array must wash out rather than stick. The kernel's opFMin has
	// to reproduce that asymmetry bit-for-bit.
	const n = 1024
	mk := func() *ir.Program {
		p := ir.NewProgram("fminnan")
		np := p.NewParam("n", n, true)
		a := p.NewArrayF("a", np)
		lo := p.NewScalarF("lo")
		hi := p.NewScalarF("hi")
		i := p.NewLoopVar("i")
		p.Body = []ir.Stmt{
			ir.SetF(lo, ir.Flt(math.Inf(1))),
			ir.SetF(hi, ir.Flt(math.Inf(-1))),
			ir.For(i, ir.Int(0), np, 1,
				ir.SetF(lo, ir.FBin{Op: ir.FMinOp, A: scalarRef(lo), B: ir.LoadF(a, i)}),
				ir.SetF(hi, ir.FBin{Op: ir.FMaxOp, A: scalarRef(hi), B: ir.LoadF(a, i)})),
		}
		return p
	}
	seed := func(f *stripefs.File, p *ir.Program) {
		SeedF64(f, hw.Default().PageSize, p.Arrays[0], func(i int64) float64 {
			if i == 300 {
				return math.NaN()
			}
			return float64((i*37)%101) - 50
		})
	}
	env, _ := runDifferential(t, mk, 8, seed)
	okLo, okHi := false, false
	for _, f := range env.Floats {
		if f == -50 {
			okLo = true
		}
		if f == 50 {
			okHi = true
		}
	}
	if !okLo || !okHi {
		t.Fatalf("NaN stuck in a reduction: float slots %v", env.Floats)
	}
}

func TestNestRegisterOverflowFallback(t *testing.T) {
	// A body large enough to exhaust the 16-bit register file: NewWith
	// must fall back to the closure tree (no bytecode installed) and the
	// program must still run identically to the NoFastPath oracle.
	const n = 70000 // distinct float constants > the 65535-register file
	mk := func() *ir.Program {
		p := ir.NewProgram("regflood")
		s := p.NewScalarF("s")
		body := make([]ir.Stmt, 0, n)
		for c := 0; c < n; c++ {
			body = append(body, ir.SetF(s, ir.AddF(scalarRef(s), ir.Flt(float64(c)))))
		}
		p.Body = body
		return p
	}
	_, _, _, m := buildWith(t, mk(), 8, Options{})
	if m.code != nil {
		t.Fatal("register overflow did not fall back to the closure tree")
	}
	runDifferentialDriver(t, mk, 8, nil, false)
}

func TestNestReports(t *testing.T) {
	// The per-loop reports must name the driver each loop actually got,
	// in program order with their nesting depth.
	pageElems := hw.Default().PageSize / ir.ElemSize
	p := ir.NewProgram("reportful")
	np := p.NewParam("n", 4*pageElems, true)
	a := p.NewArrayF("a", np)
	key := p.NewArrayI("key", np)
	s := p.NewScalarF("s")
	it := p.NewLoopVar("it")
	i := p.NewLoopVar("i")
	j := p.NewLoopVar("j")
	p.Body = []ir.Stmt{
		ir.For(it, ir.Int(0), ir.Int(2), 1,
			ir.For(i, ir.Int(0), np, 1,
				ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, i))))),
		ir.For(j, ir.Int(0), np, 1,
			ir.SetF(s, ir.AddF(scalarRef(s), ir.LoadF(a, ir.LoadI(key, j))))),
	}
	_, _, _, m := buildWith(t, p, 64, Options{})
	got := m.Reports()
	want := []struct {
		v     string
		depth int
	}{{"it", 0}, {"i", 1}, {"j", 0}}
	if len(got) != len(want) {
		t.Fatalf("got %d reports, want %d: %v", len(got), len(want), got)
	}
	for k, w := range want {
		r := got[k]
		if r.Var != w.v || r.Depth != w.depth || r.Driver != "kernel" {
			t.Errorf("report %d = %+v, want %s depth=%d kernel", k, r, w.v, w.depth)
		}
		if s := r.String(); !strings.Contains(s, "kernel") {
			t.Errorf("String() = %q does not name the driver", s)
		}
	}

	// The register-overflow fallback reports the same loops, in the same
	// order, on the closure driver.
	closure := closureReports(p.Body, 0, nil)
	if len(closure) != len(want) {
		t.Fatalf("got %d closure reports, want %d: %v", len(closure), len(want), closure)
	}
	for k, w := range want {
		if r := closure[k]; r.Var != w.v || r.Depth != w.depth || r.Driver != "closure" {
			t.Errorf("closure report %d = %+v, want %s depth=%d closure", k, r, w.v, w.depth)
		}
	}

	// NoFastPath: the whole program is the oracle, nothing to report.
	p2 := ir.NewProgram("quiet")
	np2 := p2.NewParam("n", 256, true)
	a2 := p2.NewArrayF("a", np2)
	k2 := p2.NewLoopVar("k")
	p2.Body = []ir.Stmt{ir.For(k2, ir.Int(0), np2, 1,
		ir.StoreF(a2, []ir.IExpr{k2}, ir.Flt(1)))}
	_, _, _, m2 := buildWith(t, p2, 64, Options{NoFastPath: true})
	if n := len(m2.Reports()); n != 0 {
		t.Fatalf("NoFastPath machine has %d reports, want 0", n)
	}
}
