package main

import (
	"testing"

	"repro/internal/lang"
)

// defaultSeed is the seed the generator tests draw from.
const defaultSeed = 1

func TestGenerateKernelsDeterministic(t *testing.T) {
	a, b := generateKernels(defaultSeed, 40), generateKernels(defaultSeed, 40)
	for i := range a {
		if a[i].src != b[i].src {
			t.Fatalf("kernel %d: same seed gave different sources:\n%s\n---\n%s", i, a[i].src, b[i].src)
		}
	}
	if c := generateKernels(defaultSeed+1, 1); c[0].src == a[0].src {
		t.Fatal("different seeds gave the same first kernel")
	}
}

func TestGeneratedKernelsParse(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range generateKernels(defaultSeed, kernelsPerPass) {
		if _, err := lang.Parse(k.src); err != nil {
			t.Fatalf("%s does not parse: %v\n%s", k.name, err, k.src)
		}
		if seen[k.name] {
			t.Fatalf("program name %s repeats; the plan cache would hit", k.name)
		}
		seen[k.name] = true
	}
}

// Every access shape occurs in both read-only and read-write programs of
// the default stream.
func TestGeneratedKernelsCoverShapes(t *testing.T) {
	var seen [numShapes][2]bool
	rw := 0
	ks := generateKernels(defaultSeed, kernelsPerPass)
	for _, k := range ks {
		m := 0
		if k.rw {
			m = 1
			rw++
		}
		for _, n := range k.nests {
			seen[n.shape][m] = true
		}
	}
	for s := shape(0); s < numShapes; s++ {
		if !seen[s][0] || !seen[s][1] {
			t.Errorf("shape %s: read-only %v, read-write %v", s, seen[s][0], seen[s][1])
		}
	}
	if rw != len(ks)/2 {
		t.Errorf("%d of %d programs are read-write, want half", rw, len(ks))
	}
}

// The reference evaluation agrees with the simulated machine on a few
// kernels of every shape, for both configurations.
func TestKernelJobsPassChecks(t *testing.T) {
	w := &kernelsCold{kernels: generateKernels(defaultSeed, 2*int(numShapes))}
	b := &bench{w: w, ref: map[runKey]*simRec{}, heap: newHeapSampler()}
	for i := range w.kernels {
		out := w.runJob(i, nil)
		if out.err == nil {
			out.err = b.record(out.runs)
		}
		if out.err != nil {
			t.Fatal(out.err)
		}
	}
}
