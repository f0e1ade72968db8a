package nas_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/compiler"
	"repro/internal/exec"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/nas"
)

// TestNASHintSitesEmitNoClosureCalls compiles every NAS proxy through
// the full prefetching pipeline and asserts the no-fallback property of
// the hint lowering: every loop runs as kernel bytecode, the bytecode
// carries no closure-call slots, and every compiler-inserted
// prefetch/release statement is counted as lowered.
func TestNASHintSitesEmitNoClosureCalls(t *testing.T) {
	machine := hw.Default()
	for _, app := range nas.Apps() {
		t.Run(app.Name, func(t *testing.T) {
			res, err := compiler.Compile(app.Build(0.05), machine, compiler.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			art, err := exec.Compile(res.Prog, machine.PageSize, exec.Options{})
			if err != nil {
				t.Fatal(err)
			}
			hints := 0
			for _, r := range art.Reports() {
				hints += r.Hints
				if r.Driver != "kernel" {
					t.Errorf("loop %s ran on the %s driver, want kernel", r.Var, r.Driver)
				}
			}
			if len(art.Reports()) == 0 {
				t.Fatal("no loop compiled to bytecode — assertion is vacuous")
			}
			if hints == 0 {
				t.Fatal("prefetching compile lowered no hints — assertion is vacuous")
			}
			if got := art.CallSites(); got != 0 {
				t.Errorf("CallSites = %d, want 0 (%d hints must add none)", got, hints)
			}
		})
	}
}

// TestEveryLoopLowersOnce is the executor's structural contract: for
// every NAS proxy and every example kernel, with and without inserted
// hints, each loop has exactly one lowering — kernel bytecode — and the
// artifact has no closure-call slots.
func TestEveryLoopLowersOnce(t *testing.T) {
	machine := hw.Default()
	progs := map[string]func() *ir.Program{}
	for _, app := range nas.Apps() {
		app := app
		progs[app.Name] = func() *ir.Program { return app.Build(0.05) }
	}
	files, err := filepath.Glob("../../examples/kernels/*.loop")
	if err != nil || len(files) == 0 {
		t.Fatalf("no kernel corpus found: %v", err)
	}
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.Base(path)] = func() *ir.Program {
			p, err := lang.Parse(string(src))
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			return p
		}
	}
	for name, build := range progs {
		for _, prefetch := range []bool{false, true} {
			prog := build()
			if prefetch {
				res, err := compiler.Compile(prog, machine, compiler.DefaultOptions())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				prog = res.Prog
			}
			art, err := exec.Compile(prog, machine.PageSize, exec.Options{})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(art.Reports()) == 0 {
				t.Errorf("%s (prefetch=%v): no loop reports", name, prefetch)
			}
			for _, r := range art.Reports() {
				if r.Driver != "kernel" {
					t.Errorf("%s (prefetch=%v): loop %s ran on the %s driver, want kernel",
						name, prefetch, r.Var, r.Driver)
				}
			}
			if got := art.CallSites(); got != 0 {
				t.Errorf("%s (prefetch=%v): CallSites = %d, want 0", name, prefetch, got)
			}
		}
	}
}
