package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/ir"
	"repro/internal/stripefs"
)

// The kernels-cold generator: a seeded stream of distinct loop-language
// programs. Each program has several nests over small arrays, and every
// nest takes one of the access shapes of examples/kernels. A program is
// either read-only (each nest writes only arrays nothing reads) or
// read-write (each nest writes back into an array it reads), which
// exercises the dirty-page write-back path.

type shape int

const (
	shapeTriad      shape = iota // z[i] = c*x[i] + y[i]
	shapeScatter                 // o[ix[i] % m] = ...
	shapeNegStride               // y[i] = x[n-1-i] * c
	shapeRecurrence              // each element depends on the previous one
	shapeStrided2D               // column-wise walk of a row-major matrix
	numShapes
)

var shapeNames = [numShapes]string{"triad", "scatter", "neg-stride", "recurrence", "strided-2d"}

func (s shape) String() string { return shapeNames[s] }

// genArray is one declared array. Seeded arrays start from a
// deterministic function of (salt, index); the others start zeroed.
type genArray struct {
	name   string
	long   bool
	dims   []int64
	dimSrc []string // the parameter naming each extent
	seeded bool
	salt   int64
}

func (a *genArray) elems() int64 {
	n := int64(1)
	for _, d := range a.dims {
		n *= d
	}
	return n
}

// initF values are multiples of 1/8 below 2, so sums and dyadic scalings
// stay exact for many steps and never overflow.
func (a *genArray) initF(i int64) float64 { return float64((i*a.salt+3)&15) * 0.125 }

func (a *genArray) initI(i int64) int64 { return (i*2654435761 + a.salt) & (1<<30 - 1) }

// genNest is one loop nest of a generated program. For the 2-D shape, n
// is the row count and m the column count; for scatter, m is the number
// of target slots; otherwise m is unused.
type genNest struct {
	shape shape
	n, m  int64
	c     float64 // a dyadic coefficient in (0, 1)
}

// genKernel is one generated program with everything the reference
// evaluation needs.
type genKernel struct {
	name    string
	rw      bool
	nests   []genNest
	arrays  []*genArray
	scalars []string
	src     string
}

var coeffs = []float64{0.125, 0.25, 0.375, 0.5, 0.625, 0.75}

// generateKernels returns count distinct programs drawn from seed. Nest
// j of program i has shape (i+j) mod numShapes, so every program mixes
// the shapes evenly, and program i is read-write exactly when i is odd;
// nest counts, sizes and coefficients are drawn from the seed. Fixing
// the mix keeps the stream's pooled statistics from swinging with the
// seed's luck in shapes.
func generateKernels(seed int64, count int) []*genKernel {
	rng := rand.New(rand.NewSource(seed))
	ks := make([]*genKernel, count)
	for i := range ks {
		k := &genKernel{name: fmt.Sprintf("k%x_%d", uint64(seed), i), rw: i%2 == 1}
		nn := 10 + rng.Intn(7)
		for j := 0; j < nn; j++ {
			sh := shape((i + j) % int(numShapes))
			nest := genNest{shape: sh, c: coeffs[rng.Intn(len(coeffs))]}
			switch sh {
			case shapeStrided2D:
				// Rows stay under half a page and the matrix under 8
				// pages, so a column walk strides without thrashing.
				nest.n = 8 + 4*int64(rng.Intn(3))
				nest.m = []int64{64, 96, 128, 192, 256}[rng.Intn(5)]
			default:
				nest.n = 256 + 64*int64(rng.Intn(5))
				nest.m = 32 + 32*int64(rng.Intn(8))
			}
			k.nests = append(k.nests, nest)
		}
		k.build()
		ks[i] = k
	}
	return ks
}

// build declares the program's arrays and scalars and renders its
// source. Nest j owns the arrays and the scalar suffixed with j.
func (k *genKernel) build() {
	for j, nest := range k.nests {
		name := func(base string) string { return fmt.Sprintf("%s%d", base, j) }
		// extents is "n", "m" or "nm": the nest parameters sizing the array.
		arr := func(base string, long, seeded bool, extents string) {
			a := &genArray{name: name(base), long: long, seeded: seeded, salt: int64(2*len(k.arrays) + 5)}
			for _, e := range extents {
				v := nest.n
				if e == 'm' {
					v = nest.m
				}
				a.dims = append(a.dims, v)
				a.dimSrc = append(a.dimSrc, name(string(e)))
			}
			k.arrays = append(k.arrays, a)
		}
		switch nest.shape {
		case shapeTriad:
			arr("x", false, true, "n")
			arr("y", false, true, "n")
			if !k.rw {
				arr("z", false, false, "n")
			}
		case shapeScatter:
			arr("x", false, true, "n")
			arr("ix", true, true, "n")
			arr("o", false, k.rw, "m")
		case shapeNegStride:
			arr("x", false, true, "n")
			arr("y", false, k.rw, "n")
		case shapeRecurrence:
			arr("x", false, true, "n")
			if !k.rw {
				arr("y", false, false, "n")
				k.scalars = append(k.scalars, name("s"))
			}
		case shapeStrided2D:
			arr("M", false, true, "nm")
			if k.rw {
				arr("w", false, true, "n")
			} else {
				arr("v", false, false, "m")
				k.scalars = append(k.scalars, name("s"))
			}
		}
	}
	k.src = k.render()
}

// render writes the program source from the declarations build made.
func (k *genKernel) render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %s\n", k.name)
	for j, nest := range k.nests {
		fmt.Fprintf(&b, "param n%d = %d\n", j, nest.n)
		if nest.shape == shapeScatter || nest.shape == shapeStrided2D {
			fmt.Fprintf(&b, "param m%d = %d\n", j, nest.m)
		}
	}
	for _, a := range k.arrays {
		kind := "double"
		if a.long {
			kind = "long"
		}
		fmt.Fprintf(&b, "array %s %s", kind, a.name)
		for _, d := range a.dimSrc {
			fmt.Fprintf(&b, "[%s]", d)
		}
		b.WriteString("\n")
	}
	for _, s := range k.scalars {
		fmt.Fprintf(&b, "scalar double %s\n", s)
	}
	for j, nest := range k.nests {
		b.WriteString("\n")
		writeNest(&b, j, nest, k.rw)
	}
	return b.String()
}

func writeNest(b *strings.Builder, j int, nest genNest, rw bool) {
	c := fmt.Sprint(nest.c)
	p := func(format string, args ...interface{}) {
		s := fmt.Sprintf(format, args...)
		b.WriteString(strings.ReplaceAll(s, "#", fmt.Sprint(j)) + "\n")
	}
	switch nest.shape {
	case shapeTriad:
		p("for i = 0 .. n# {")
		if rw {
			p("    x#[i] = %s * x#[i] + y#[i]", c)
		} else {
			p("    z#[i] = %s * x#[i] + y#[i]", c)
		}
		p("}")
	case shapeScatter:
		p("for i = 0 .. n# {")
		if rw {
			p("    o#[ix#[i] %% m#] = o#[ix#[i] %% m#] + x#[i]")
		} else {
			p("    o#[ix#[i] %% m#] = x#[i] * %s", c)
		}
		p("}")
	case shapeNegStride:
		p("for i = 0 .. n# {")
		if rw {
			p("    x#[i] = x#[i] + %s * y#[n# - 1 - i]", c)
		} else {
			p("    y#[i] = x#[n# - 1 - i] * %s", c)
		}
		p("}")
	case shapeRecurrence:
		if rw {
			p("for i = 1 .. n# {")
			p("    x#[i] = x#[i] + %s * x#[i - 1]", c)
		} else {
			p("s# = 0.0")
			p("for i = 0 .. n# {")
			p("    s# = s# * %s + x#[i]", c)
			p("    y#[i] = s#")
		}
		p("}")
	case shapeStrided2D:
		p("for j = 0 .. m# {")
		if rw {
			p("    for i = 0 .. n# {")
			p("        M#[i][j] = M#[i][j] * %s + w#[i]", c)
			p("    }")
		} else {
			p("    s# = 0.0")
			p("    for i = 0 .. n# {")
			p("        s# = s# + M#[i][j]")
			p("    }")
			p("    v#[j] = s# * %s", c)
		}
		p("}")
	}
}

// seed writes every seeded array's initial contents into the backing
// file, the way the NAS proxies pre-initialize their data sets.
func (k *genKernel) seed(prog *ir.Program, file *stripefs.File, pageSize int64) {
	for _, a := range k.arrays {
		if !a.seeded {
			continue
		}
		if a.long {
			exec.SeedI64(file, pageSize, prog.ArrayByName(a.name), a.initI)
		} else {
			exec.SeedF64(file, pageSize, prog.ArrayByName(a.name), a.initF)
		}
	}
}

// refState is the reference evaluation's final memory: float arrays as
// float64, long arrays as int64, and the float scalars. Its buffers are
// reused from one kernel to the next.
type refState struct {
	f   map[string][]float64
	i   map[string][]int64
	scl map[string]float64
	fa  []float64 // backing store for f
	ia  []int64   // backing store for i
}

func (st *refState) reset() {
	if st.f == nil {
		st.f, st.i, st.scl = map[string][]float64{}, map[string][]int64{}, map[string]float64{}
	}
	clear(st.f)
	clear(st.i)
	clear(st.scl)
}

// reference evaluates the kernel in plain Go from its seeded inputs,
// independently of the front end, compiler and executor, into st. Every
// product is rounded before it is added (the explicit float64
// conversions), so no fused multiply-add can make the result differ from
// the simulated machine's, and the comparison can be exact.
func (k *genKernel) reference(st *refState) {
	st.reset()
	var nf, ni int64
	for _, a := range k.arrays {
		if a.long {
			ni += a.elems()
		} else {
			nf += a.elems()
		}
	}
	if int64(cap(st.fa)) < nf {
		st.fa = make([]float64, nf)
	}
	if int64(cap(st.ia)) < ni {
		st.ia = make([]int64, ni)
	}
	fa, ia := st.fa[:nf], st.ia[:ni]
	for _, a := range k.arrays {
		n := a.elems()
		if a.long {
			v := ia[:n:n]
			ia = ia[n:]
			for i := range v {
				v[i] = 0
				if a.seeded {
					v[i] = a.initI(int64(i))
				}
			}
			st.i[a.name] = v
			continue
		}
		v := fa[:n:n]
		fa = fa[n:]
		for i := range v {
			v[i] = 0
			if a.seeded {
				v[i] = a.initF(int64(i))
			}
		}
		st.f[a.name] = v
	}
	for j, nest := range k.nests {
		f := func(base string) []float64 { return st.f[fmt.Sprintf("%s%d", base, j)] }
		n, m, c := nest.n, nest.m, nest.c
		switch nest.shape {
		case shapeTriad:
			x, y, z := f("x"), f("y"), f("z")
			if k.rw {
				z = x
			}
			for i := int64(0); i < n; i++ {
				z[i] = float64(c*x[i]) + y[i]
			}
		case shapeScatter:
			x, o := f("x"), f("o")
			ix := st.i[fmt.Sprintf("ix%d", j)]
			for i := int64(0); i < n; i++ {
				if k.rw {
					o[ix[i]%m] = o[ix[i]%m] + x[i]
				} else {
					o[ix[i]%m] = x[i] * c
				}
			}
		case shapeNegStride:
			x, y := f("x"), f("y")
			for i := int64(0); i < n; i++ {
				if k.rw {
					x[i] = x[i] + float64(c*y[n-1-i])
				} else {
					y[i] = x[n-1-i] * c
				}
			}
		case shapeRecurrence:
			x := f("x")
			if k.rw {
				for i := int64(1); i < n; i++ {
					x[i] = x[i] + float64(c*x[i-1])
				}
				break
			}
			y, s := f("y"), 0.0
			for i := int64(0); i < n; i++ {
				s = float64(s*c) + x[i]
				y[i] = s
			}
			st.scl[fmt.Sprintf("s%d", j)] = s
		case shapeStrided2D:
			mat := f("M")
			if k.rw {
				w := f("w")
				for jj := int64(0); jj < m; jj++ {
					for i := int64(0); i < n; i++ {
						mat[i*m+jj] = float64(mat[i*m+jj]*c) + w[i]
					}
				}
				break
			}
			v, s := f("v"), 0.0
			for jj := int64(0); jj < m; jj++ {
				s = 0.0
				for i := int64(0); i < n; i++ {
					s = s + mat[i*m+jj]
				}
				v[jj] = s * c
			}
			st.scl[fmt.Sprintf("s%d", j)] = s
		}
	}
}

// check compares a finished run's memory and scalars with the reference
// state, bit for bit, reading the simulated memory with cost-free peeks.
func (k *genKernel) check(prog *ir.Program, res *core.Result, ref *refState) error {
	for _, a := range k.arrays {
		arr := prog.ArrayByName(a.name)
		if arr == nil {
			return fmt.Errorf("%s: array %s missing", k.name, a.name)
		}
		if a.long {
			want := ref.i[a.name]
			for i, w := range want {
				if got := res.VM.PeekI64(arr.Base + int64(i)*ir.ElemSize); got != w {
					return fmt.Errorf("%s: %s[%d] = %d, reference %d", k.name, a.name, i, got, w)
				}
			}
			continue
		}
		want := ref.f[a.name]
		for i, w := range want {
			if got := res.VM.PeekF64(arr.Base + int64(i)*ir.ElemSize); math.Float64bits(got) != math.Float64bits(w) {
				return fmt.Errorf("%s: %s[%d] = %v, reference %v", k.name, a.name, i, got, w)
			}
		}
	}
	for _, s := range k.scalars {
		slot, ok := prog.ScalarsF[s]
		if !ok {
			return fmt.Errorf("%s: scalar %s missing", k.name, s)
		}
		if got, w := res.Env.Floats[slot], ref.scl[s]; math.Float64bits(got) != math.Float64bits(w) {
			return fmt.Errorf("%s: %s = %v, reference %v", k.name, s, got, w)
		}
	}
	return nil
}
