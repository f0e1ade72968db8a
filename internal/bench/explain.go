// ExplainFastPath: a diagnostic report of how the executor compiled each
// NAS proxy's loop nest — which loops run as kernel bytecode, which fell
// back to the closure oracle, and how many hints each loop lowered.
// `oocbench -explain-fastpath` prints it so a loop that missed the
// bytecode is visible instead of just slow.
package bench

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/nas"
)

// ExplainFastPath runs every NAS proxy once at the given scale in the
// standard prefetching configuration and prints each loop's compiled
// driver and lowered hints.
func ExplainFastPath(w io.Writer, scale float64) error {
	ps := hw.Default().PageSize
	for _, app := range nas.Apps() {
		prog := app.Build(scale)
		if err := prog.Resolve(ps); err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		cfg := core.DefaultConfig(core.MachineFor(nas.DataBytes(prog, ps), ratioFor(app)))
		cfg.Seed = app.Seed
		res, err := core.Run(app.Build(scale), cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", app.Name, err)
		}
		fmt.Fprintf(w, "%s:\n", app.Name)
		if len(res.FastPath) == 0 {
			fmt.Fprintln(w, "  (no compiled loops)")
			continue
		}
		for _, r := range res.FastPath {
			fmt.Fprintf(w, "  %s\n", r)
		}
	}
	return nil
}

// ratioFor picks the app's standard data:memory ratio (2× unless the
// paper used something else).
func ratioFor(app *nas.App) float64 {
	if app.StdRatio != 0 {
		return app.StdRatio
	}
	return 2
}
