package main

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/fault/harness"
	"repro/internal/hw"
	"repro/internal/ir"
	"repro/internal/lang"
	"repro/internal/nas"
)

// fig3Scale is the problem scale of the fig3 workloads: the NAS proxies
// at half their standard size, as `oocbench -exp fig3 -scale 0.5` runs
// them.
const fig3Scale = 0.5

// kernelsPerPass is the length of the kernels-cold stream. One pass runs
// each kernel once; the plan cache is emptied between passes, so every
// job is a plan-cache miss and the cache holds at most one pass.
const kernelsPerPass = 256

// cfgO and cfgP index the two configurations of every program: the
// original program on paged virtual memory, and the prefetching one.
const (
	cfgO = iota
	cfgP
)

var cfgNames = [2]string{"O", "P"}

// runKey names one simulated run: a program and a configuration.
type runKey struct {
	prog, cfg int
}

// jobOutcome is what one job hands back: its simulated runs, or the
// first check that failed.
type jobOutcome struct {
	runs []keyedRun
	err  error
}

type keyedRun struct {
	key runKey
	rec *simRec
}

// workload is one of the benchmark's workloads. A pass is a fixed set of
// jobs; every pass of a workload runs the same simulated runs.
type workload interface {
	// setup builds the inputs and fills whatever the timed jobs reuse.
	setup() error
	// passJobs returns the jobs of the next pass in the order to run them.
	passJobs() []int
	// beforePass runs untimed before every pass.
	beforePass()
	// runJob runs one job. With tracing on it records child spans.
	runJob(job int, tr *tracer) jobOutcome
	// compileOnce compiles every program through the public compile
	// functions for the traced run, where jobs do not compile.
	compileOnce(tr *tracer) error
	progName(prog int) string
	numProgs() int
}

// ---- fig3-disk and fig3-farmem -------------------------------------------

type fig3 struct {
	backend *core.BackendSpec // nil: the paper's disk tier
	apps    []*nas.App
	order   *rand.Rand // draws each pass's job order
	cfgs    [][2]core.Config
}

func newFig3(backend *core.BackendSpec, seed int64) *fig3 {
	return &fig3{backend: backend, apps: nas.Apps(), order: rand.New(rand.NewSource(seed))}
}

func (w *fig3) numProgs() int            { return len(w.apps) }
func (w *fig3) progName(prog int) string { return w.apps[prog].Name }
func (w *fig3) passJobs() []int          { return w.order.Perm(2 * len(w.apps)) }
func (w *fig3) beforePass()              {}

// config is each app's standard out-of-core configuration: memory sized
// to the app's data:memory ratio, as the experiment suite runs it.
func (w *fig3) config(app *nas.App, prefetch bool) (core.Config, error) {
	prog := app.Build(fig3Scale)
	ps := hw.Default().PageSize
	if err := prog.Resolve(ps); err != nil {
		return core.Config{}, err
	}
	cfg := core.DefaultConfig(core.MachineFor(nas.DataBytes(prog, ps), app.Ratio()))
	cfg.Seed = app.Seed
	cfg.Backend = w.backend
	cfg.Prefetch = prefetch
	return cfg, nil
}

// setup empties the plan cache and fills it again by running every job
// once: the timed passes then reuse the compiled plans, as repeated runs
// of one program do.
func (w *fig3) setup() error {
	core.ResetPlanCache()
	w.cfgs = make([][2]core.Config, len(w.apps))
	for i, app := range w.apps {
		for c := range w.cfgs[i] {
			cfg, err := w.config(app, c == cfgP)
			if err != nil {
				return fmt.Errorf("%s: %w", app.Name, err)
			}
			w.cfgs[i][c] = cfg
		}
	}
	return nil
}

// A fig3 job is one (app, configuration) run: build, run, check.
func (w *fig3) runJob(job int, tr *tracer) jobOutcome {
	a, c := job/2, job%2
	app := w.apps[a]
	root := tr.begin(app.Name+"/"+cfgNames[c], -1)
	defer tr.end(root)

	sp := tr.begin("nas.Build", root)
	prog := app.Build(fig3Scale)
	tr.end(sp)

	sp = tr.begin("core.RunContext", root)
	res, err := core.RunContext(context.Background(), prog, w.cfgs[a][c])
	tr.end(sp)
	if err != nil {
		return jobOutcome{err: fmt.Errorf("%s/%s: %w", app.Name, cfgNames[c], err)}
	}

	sp = tr.begin("check", root)
	defer tr.end(sp)
	if err := app.Check(prog, res.VM, res.Env); err != nil {
		return jobOutcome{err: fmt.Errorf("%s/%s: check: %w", app.Name, cfgNames[c], err)}
	}
	if err := res.VM.CheckInvariants(); err != nil {
		return jobOutcome{err: fmt.Errorf("%s/%s: vm invariants: %w", app.Name, cfgNames[c], err)}
	}
	rec := newSimRec(res, harness.Fingerprint(res))
	return jobOutcome{runs: []keyedRun{{runKey{a, c}, rec}}}
}

// compileOnce compiles each (app, configuration) through the front end,
// the prefetching compiler and the bytecode assembler, the work the plan
// cache hides from the timed jobs.
func (w *fig3) compileOnce(tr *tracer) error {
	for a, app := range w.apps {
		for c := range w.cfgs[a] {
			root := tr.begin("compile:"+app.Name+"/"+cfgNames[c], -1)
			sp := tr.begin("nas.Build", root)
			prog := app.Build(fig3Scale)
			tr.end(sp)
			err := compileProgram(tr, root, runKey{a, c}, prog, w.cfgs[a][c])
			tr.end(root)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", app.Name, cfgNames[c], err)
			}
		}
	}
	return nil
}

// compileProgram runs the compile path core.RunContext takes on a
// plan-cache miss, through the public functions, inside child spans of
// parent, and records the compiler's and assembler's counts for key.
func compileProgram(tr *tracer, parent int, key runKey, prog *ir.Program, cfg core.Config) error {
	machine, err := cfg.Backend.Apply(cfg.Machine)
	if err != nil {
		return err
	}
	if err := prog.Resolve(machine.PageSize); err != nil {
		return err
	}
	execProg := prog.Clone()
	var plan []compiler.PlanEntry
	if cfg.Prefetch {
		sp := tr.begin("compiler.Compile", parent)
		res, err := compiler.Compile(execProg, machine, compiler.DefaultOptions())
		tr.end(sp)
		if err != nil {
			return err
		}
		execProg, plan = res.Prog, res.Plan
	}
	sp := tr.begin("exec.Compile", parent)
	art, err := exec.Compile(execProg, machine.PageSize, exec.Options{})
	tr.end(sp)
	if err != nil {
		return err
	}
	tr.recordCompile(key, plan, art)
	return nil
}

// ---- kernels-cold --------------------------------------------------------

type kernelsCold struct {
	seed    int64
	kernels []*genKernel
	ref     refState
}

func (w *kernelsCold) numProgs() int             { return len(w.kernels) }
func (w *kernelsCold) progName(prog int) string  { return w.kernels[prog].name }
func (w *kernelsCold) compileOnce(*tracer) error { return nil }

// Jobs run in stream order; the seed already chose the stream.
func (w *kernelsCold) passJobs() []int {
	jobs := make([]int, len(w.kernels))
	for i := range jobs {
		jobs[i] = i
	}
	return jobs
}

// beforePass empties the plan cache, so that every job of the next pass
// compiles anew.
func (w *kernelsCold) beforePass() { core.ResetPlanCache() }

// warmupKernels is how many kernels, from a stream disjoint from the
// timed one, setup runs to bring the process's pools and heap to steady
// state.
const warmupKernels = 48

func (w *kernelsCold) setup() error {
	w.kernels = generateKernels(w.seed, kernelsPerPass)
	warm := &kernelsCold{kernels: generateKernels(^w.seed, warmupKernels)}
	for i := range warm.kernels {
		warm.runJob(i, nil) // only warms; the timed kernels are the ones checked
	}
	core.ResetPlanCache()
	return nil
}

// A kernels-cold job is one generated kernel: parse, an O run, a P run,
// and their checks against the plain-Go reference. With tracing on, the
// job also compiles the kernel through the public compile functions, so
// the trace shows the front end's cost; core.RunContext repeats that
// work internally on its plan-cache miss.
func (w *kernelsCold) runJob(job int, tr *tracer) jobOutcome {
	k := w.kernels[job]
	root := tr.begin(k.name, -1)
	defer tr.end(root)

	sp := tr.begin("lang.Parse", root)
	prog, err := lang.Parse(k.src)
	tr.end(sp)
	if err != nil {
		return jobOutcome{err: fmt.Errorf("%s: parse: %w", k.name, err)}
	}
	ps := hw.Default().PageSize
	if err := prog.Resolve(ps); err != nil {
		return jobOutcome{err: fmt.Errorf("%s: %w", k.name, err)}
	}
	var cfgs [2]core.Config
	for c := range cfgs {
		cfgs[c] = core.DefaultConfig(core.MachineFor(nas.DataBytes(prog, ps), 2))
		cfgs[c].Seed = k.seed
		cfgs[c].Prefetch = c == cfgP
	}
	if tr != nil {
		for c := range cfgs {
			if err := compileProgram(tr, root, runKey{job, c}, prog, cfgs[c]); err != nil {
				return jobOutcome{err: fmt.Errorf("%s/%s: compile: %w", k.name, cfgNames[c], err)}
			}
		}
	}
	var results [2]*core.Result
	for c := range cfgs {
		sp := tr.begin("core.RunContext", root)
		res, err := core.RunContext(context.Background(), prog, cfgs[c])
		tr.end(sp)
		if err != nil {
			return jobOutcome{err: fmt.Errorf("%s/%s: %w", k.name, cfgNames[c], err)}
		}
		results[c] = res
	}

	sp = tr.begin("check", root)
	defer tr.end(sp)
	// O is checked against the reference element by element; P is
	// checked against O by output fingerprint in record.
	k.reference(&w.ref)
	if err := k.check(prog, results[cfgO], &w.ref); err != nil {
		return jobOutcome{err: fmt.Errorf("%s/O: %w", k.name, err)}
	}
	out := jobOutcome{}
	for c, res := range results {
		if err := res.VM.CheckInvariants(); err != nil {
			return jobOutcome{err: fmt.Errorf("%s/%s: vm invariants: %w", k.name, cfgNames[c], err)}
		}
		out.runs = append(out.runs, keyedRun{runKey{job, c}, newSimRec(res, harness.Fingerprint(res))})
	}
	return out
}
