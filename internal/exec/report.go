// Per-loop compilation reports: which driver each loop of the nest got
// (kernel bytecode, or the closure oracle after a register overflow) and
// how many hints its body lowered. The harness surfaces these through
// core.Result and `oocbench -explain-fastpath` so a loop that missed the
// bytecode is diagnosable instead of a silent slowdown.
package exec

import (
	"fmt"
	"strings"

	"repro/internal/ir"
)

// LoopReport describes how one loop of the program was compiled.
type LoopReport struct {
	Var    string // induction variable name
	Depth  int    // 0 = top level
	Driver string // "kernel" or "closure"

	// Hints counts the prefetch/release statements in the loop's direct
	// body (nested loops report their own) lowered to kernel bytecode.
	// The nest compiler lowers every hint it reaches — side-safe shapes
	// to single-evaluation templates, the rest to the exact
	// double-evaluation sequence — so on the kernel path this equals the
	// hint statement count. Zero on the closure driver.
	Hints int
}

func (r LoopReport) String() string {
	s := fmt.Sprintf("%sloop %-8s %s", strings.Repeat("  ", r.Depth), r.Var, r.Driver)
	if r.Hints > 0 {
		s += fmt.Sprintf(" (%d hints lowered)", r.Hints)
	}
	return s
}

// Reports returns the per-loop compilation reports in program order.
// A NoFastPath machine reports nothing: every loop is the oracle.
func (m *Machine) Reports() []LoopReport {
	return m.reports
}

// closureReports lists every loop of body, in program order, as run by
// the closure driver.
func closureReports(body []ir.Stmt, depth int, out []LoopReport) []LoopReport {
	for _, s := range body {
		switch x := s.(type) {
		case *ir.Loop:
			out = append(out, LoopReport{Var: x.Var, Depth: depth, Driver: "closure"})
			out = closureReports(x.Body, depth+1, out)
		case ir.If:
			out = closureReports(x.Then, depth, out)
			out = closureReports(x.Else, depth, out)
		}
	}
	return out
}
