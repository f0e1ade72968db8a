// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload for a given number of seconds, checks every job's output, and
// prints its metrics as one JSON object on the last line of standard
// output:
//
//	perfbench -workload fig3-disk -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics; with -trace 1 it runs
// a separate traced measurement and reports the per-layer metrics. All
// work runs on one goroutine, one job at a time. README.md describes the
// workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
)

// processStart approximates process start: package initialization runs
// before main, after the runtime is up.
var processStart = time.Now()

// setupReps is how many times an untraced run repeats the set-up, spread
// over the run; it reports the median.
const setupReps = 7

// minTimedPasses is the fewest timed passes a run measures.
const minTimedPasses = 5

func main() {
	// One job runs at a time, so one CPU: the garbage collector's work
	// then lands in the measured jobs instead of on whichever other CPU
	// the host's neighbours leave idle, which made host times spread
	// several times wider between runs.
	runtime.GOMAXPROCS(1)
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload: fig3-disk, fig3-farmem or kernels-cold")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 10, "how long to measure, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	outDir := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for the traced run's spans and CPU profile")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: usage: perfbench -workload NAME -seed N -seconds S -trace 0|1")
		return 2
	}
	w, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	b := &bench{w: w, ref: map[runKey]*simRec{}, bestMs: map[int]float64{}, heap: newHeapSampler()}
	var metrics map[string]float64
	if *trace == 0 {
		metrics, err = b.endToEnd(*seconds)
	} else {
		metrics, err = b.traced(*seconds, *outDir, fmt.Sprintf("%s-%d", *name, *seed))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := endToEndMetrics
	if *trace == 1 {
		defs = perLayerMetrics
	}
	out := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s not measured\n", d.name)
			return 1
		}
		out.Metrics[d.name] = value{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "fig3-disk":
		return newFig3(nil, seed), nil
	case "fig3-farmem":
		spec, err := core.ParseBackendSpec("farmem")
		if err != nil {
			return nil, err
		}
		return newFig3(&spec, seed), nil
	case "kernels-cold":
		return &kernelsCold{seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want fig3-disk, fig3-farmem or kernels-cold)", name)
}

// bench runs a workload's jobs and keeps what the metrics need.
type bench struct {
	w   workload
	ref map[runKey]*simRec // each run's first record; later passes must match it

	attempted, failed int
	timedJobs         int
	timedAlloc        uint64          // heap bytes allocated by timed passes' jobs
	bestMs            map[int]float64 // each job's least host ms over timed passes
	passRates         []float64       // jobs per second of each timed pass
	heap              *heapSampler

	passHits, passMisses uint64 // plan-cache activity of the last pass
}

// job runs one job and its checks, and returns its host time.
func (b *bench) job(j int, tr *tracer) time.Duration {
	t0 := time.Now()
	out := b.w.runJob(j, tr)
	d := time.Since(t0)
	b.attempted++
	if out.err == nil {
		out.err = b.record(out.runs)
	}
	if out.err != nil {
		b.failed++
		if b.failed <= 5 {
			fmt.Fprintln(os.Stderr, "perfbench: job failed:", out.err)
		}
	}
	return d
}

// record checks a job's simulated runs against the first run of the
// same job, and the prefetching run's output against the original's:
// hints are non-binding, so the two must compute the same memory image.
func (b *bench) record(runs []keyedRun) error {
	for _, r := range runs {
		name := b.w.progName(r.key.prog) + "/" + cfgNames[r.key.cfg]
		if old, ok := b.ref[r.key]; !ok {
			b.ref[r.key] = r.rec
		} else if !sameSim(old, r.rec) {
			return fmt.Errorf("%s: simulated statistics differ from the first run of the same job", name)
		}
		other := b.ref[runKey{r.key.prog, 1 - r.key.cfg}]
		if other != nil && other.fp != r.rec.fp {
			return fmt.Errorf("%s: output fingerprint %#x differs from the other configuration's %#x", name, r.rec.fp, other.fp)
		}
	}
	return nil
}

// pass runs one whole pass; timed passes record each job's host time
// and sample the heap after it.
func (b *bench) pass(tr *tracer, timed bool) time.Duration {
	b.w.beforePass()
	h0, m0, _ := core.PlanCacheStats()
	jobs := b.w.passJobs()
	a0 := totalAlloc()
	t0 := time.Now()
	for _, j := range jobs {
		d := b.job(j, tr)
		if timed {
			ms := float64(d) / 1e6
			if best, ok := b.bestMs[j]; !ok || ms < best {
				b.bestMs[j] = ms
			}
			b.heap.sample()
		}
	}
	el := time.Since(t0)
	if timed {
		b.timedJobs += len(jobs)
		b.timedAlloc += totalAlloc() - a0
		b.passRates = append(b.passRates, float64(len(jobs))/el.Seconds())
		b.heap.endPass()
	}
	h1, m1, _ := core.PlanCacheStats()
	b.passHits, b.passMisses = h1-h0, m1-m0
	return el
}

// jobQuantile is the q-quantile over jobs of each job's least host time
// over the timed passes, in ms. With one CPU, a garbage-collection
// cycle's marking falls into the few jobs that run while it lasts, so a
// per-pass quantile near the tail measured where the cycles fell more
// than the jobs. Each job's best of its runs measures the job itself;
// the collector's cost shows in jobs_per_s and alloc_kb_per_job.
func (b *bench) jobQuantile(q float64) float64 {
	ms := make([]float64, 0, len(b.bestMs))
	for _, v := range b.bestMs {
		ms = append(ms, v)
	}
	sort.Float64s(ms)
	return quantile(ms, q)
}

// profiledPass runs one timed pass under the CPU profiler, writing the
// profile to path.
func (b *bench) profiledPass(path string) (time.Duration, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return 0, err
	}
	d := b.pass(nil, true)
	pprof.StopCPUProfile()
	return d, f.Close()
}

// setup runs the workload's set-up; fig3 then fills the plan cache with
// one untimed pass, which also records every run's reference statistics.
func (b *bench) setup() error {
	if err := b.w.setup(); err != nil {
		return err
	}
	if _, ok := b.w.(*fig3); ok {
		b.pass(nil, false)
	}
	return nil
}

// endToEnd runs whole timed passes until seconds have passed, and at
// least minTimedPasses, and measures the end-to-end metrics. The first
// set-up is timed from process start; the others run between timed
// passes, spread evenly over the run, so that their median samples the
// host across the whole run rather than in its first seconds.
//
// jobs_per_s is the throughput of the fastest pass. Neighbours on the
// shared host slow its memory system for seconds at a time, often for
// more than half a run, and only ever slow a pass down; the fastest pass
// is the one they disturbed least.
func (b *bench) endToEnd(seconds float64) (map[string]float64, error) {
	var setups []float64
	setup := func(t0 time.Time) error {
		if err := b.setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}
	if err := setup(processStart); err != nil {
		return nil, err
	}
	var el time.Duration
	for el.Seconds() < seconds || len(b.passRates) < minTimedPasses {
		if len(setups) < setupReps && el.Seconds() >= seconds*float64(len(setups))/setupReps {
			if err := setup(time.Now()); err != nil {
				return nil, err
			}
		}
		el += b.pass(nil, true)
	}
	for len(setups) < setupReps {
		if err := setup(time.Now()); err != nil {
			return nil, err
		}
	}

	s := summarize(b.ref, b.w.numProgs())
	m := map[string]float64{
		"setup_s":           median(setups),
		"jobs_per_s":        slices.Max(b.passRates),
		"job_ms_p50":        b.jobQuantile(0.5),
		"job_ms_p90":        b.jobQuantile(0.9),
		"alloc_kb_per_job":  float64(b.timedAlloc) / 1024 / float64(b.timedJobs),
		"heap_peak_mb":      b.heap.medianMiB(),
		"sim_speedup_geo":   s.speedupGeo,
		"sim_speedup_min":   s.speedupMin,
		"sim_coverage":      s.coverage,
		"sim_stall_frac":    s.stallFrac,
		"sim_hint_overhead": s.overhead,
		"pass_ratio":        1 - float64(b.failed)/float64(b.attempted),
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d timed jobs in %d passes over %.2f s; fail_ratio %g (%d of %d jobs)\n",
		b.timedJobs, len(b.passRates), el.Seconds(), float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	fmt.Fprintf(os.Stderr, "perfbench: jobs/s by pass: %.4g\n", b.passRates)
	fmt.Fprintf(os.Stderr, "perfbench: heap peak MiB by pass: %.4g\n", b.heap.peaksMiB())
	fmt.Fprintf(os.Stderr, "perfbench: set-up s: %.4g\n", setups)
	b.printPrograms(s)
	return m, nil
}

// printPrograms writes each program's simulated speedup and coverage to
// standard error, in the style of oocbench's Figure 3 and 4(a) tables.
func (b *bench) printPrograms(s simSummary) {
	if _, ok := b.w.(*fig3); !ok {
		return
	}
	for p := 0; p < b.w.numProgs(); p++ {
		fmt.Fprintf(os.Stderr, "  %-6s speedup %.2fx  coverage %.1f%%\n", b.w.progName(p), s.speedups[p], s.coverages[p]*100)
	}
}

// traced runs the per-layer measurement. After set-up it alternates
// untraced and traced passes, so that drift in the host's speed falls on
// both alike. Untraced passes run under the CPU profiler, which gives
// the host-time shares of the system as the end-to-end runs see it;
// traced passes record spans. The simulated per-layer counts come from
// the runs' statistics.
func (b *bench) traced(seconds float64, outDir, tag string) (map[string]float64, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if err := b.setup(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	tr := newTracer()
	if err := b.w.compileOnce(tr); err != nil {
		return nil, err
	}
	var el time.Duration
	var uRates, tRates []float64
	var profiles []string
	for i := 0; el.Seconds() < seconds || len(tRates) < 2; i++ {
		if i%2 == 1 {
			el += b.pass(tr, true)
			tRates = append(tRates, b.passRates[len(b.passRates)-1])
			continue
		}
		path := filepath.Join(outDir, fmt.Sprintf("%s.cpu%d.pprof", tag, len(profiles)))
		d, err := b.profiledPass(path)
		if err != nil {
			return nil, err
		}
		el += d
		profiles = append(profiles, path)
		uRates = append(uRates, b.passRates[len(b.passRates)-1])
	}
	if err := tr.write(filepath.Join(outDir, tag+".trace.json")); err != nil {
		return nil, err
	}
	host, err := foldProfile(profiles)
	if err != nil {
		return nil, err
	}
	uJps, tJps := median(uRates), median(tRates)
	tPasses := len(tRates)

	m := map[string]float64{}
	sum, n := tr.spanTotals()
	perCall := func(name string) float64 {
		if n[name] == 0 {
			return 0
		}
		return float64(sum[name]) / float64(n[name]) / 1e6
	}
	_, cold := b.w.(*kernelsCold)
	parse := "nas.Build"
	if cold {
		parse = "lang.Parse"
	}
	m["lang.parse_ms"] = perCall(parse)
	m["compiler.compile_ms"] = perCall("compiler.Compile")
	m["exec.assemble_ms"] = perCall("exec.Compile")
	m["core.run_ms"] = perCall("core.RunContext")
	m["nas.check_ms"] = perCall("check")

	front := sum[parse] + sum["compiler.Compile"] + sum["exec.Compile"]
	total := tr.rootTotal()
	if cold {
		// A traced kernels-cold job compiles once through the public
		// functions and once more inside core.RunContext; count it once.
		total -= sum["compiler.Compile"] + sum["exec.Compile"]
	}
	m["host.frontend_pct"] = 100 * float64(front) / float64(total)

	var cc compileCounts
	for _, c := range tr.compiles {
		cc.prefetchRefs += c.prefetchRefs
		cc.releaseRefs += c.releaseRefs
		cc.bytecode += c.bytecode
		cc.pageRun += c.pageRun
		cc.oracle += c.oracle
		cc.call += c.call
	}
	m["compiler.prefetch_refs"] = float64(cc.prefetchRefs)
	m["compiler.release_refs"] = float64(cc.releaseRefs)
	m["exec.loops_bytecode"] = float64(cc.bytecode)
	m["exec.loops_pagerun"] = float64(cc.pageRun)
	m["exec.loops_oracle"] = float64(cc.oracle)
	m["exec.call_sites"] = float64(cc.call)
	m["core.plan_hits"] = float64(b.passHits)
	m["core.plan_misses"] = float64(b.passMisses)

	for _, layer := range hostLayers {
		m["host."+layer+"_pct"] = host[layer]
	}
	m["trace.overhead_pct"] = 100 * (uJps - tJps) / uJps

	b.simLayers(m)
	var events int64
	for _, r := range b.ref {
		events += r.dispatched
	}
	m["sim.events"] = float64(events)
	m["sim.host_ns_per_event"] = float64(sum["core.RunContext"]) / float64(int64(tPasses)*events)

	s := summarize(b.ref, b.w.numProgs())
	for _, app := range fig3Apps {
		m["sim.speedup."+app], m["sim.coverage."+app] = 0, 0
	}
	if !cold {
		for p := 0; p < b.w.numProgs(); p++ {
			m["sim.speedup."+b.w.progName(p)] = s.speedups[p]
			m["sim.coverage."+b.w.progName(p)] = s.coverages[p]
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d untraced passes at %.2f jobs/s, %d traced at %.2f jobs/s (overhead %.1f%%); fail_ratio %g (%d of %d jobs)\n",
		len(uRates), uJps, tPasses, tJps, m["trace.overhead_pct"], float64(b.failed)/float64(b.attempted), b.failed, b.attempted)
	b.printPrograms(s)
	var parts []string
	for _, layer := range hostLayers {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", layer, host[layer]))
	}
	fmt.Fprintln(os.Stderr, "perfbench: host samples by layer:", strings.Join(parts, ", "))
	return m, nil
}

// simLayers adds the simulated per-layer counts, summed over the P runs
// of one pass.
func (b *bench) simLayers(m map[string]float64) {
	var user, sysF, sysP, idle, nonPf, late, issued, dropped, unneeded, wb, reclaims int64
	var inserted, filtered, calls, requests, busy, retries, requeued int64
	var util float64
	runs := 0
	// Programs in index order: the float sums must not depend on map
	// iteration order.
	for p := 0; p < b.w.numProgs(); p++ {
		r := b.ref[runKey{p, cfgP}]
		if r == nil {
			continue
		}
		runs++
		user += int64(r.times.User)
		sysF += int64(r.times.SysFault)
		sysP += int64(r.times.SysPrefetch)
		idle += int64(r.times.Idle)
		nonPf += r.mem.NonPrefetchedFault
		late += r.mem.PrefetchedFaults
		issued += r.mem.PrefetchIssued
		dropped += r.mem.PrefetchDropped
		unneeded += r.mem.PrefetchUnneeded
		wb += r.mem.Writebacks
		reclaims += r.mem.Reclaims
		inserted += r.rt.InsertedPages
		filtered += r.rt.FilteredPages
		calls += r.rt.IssuedCalls
		for _, d := range r.disks {
			for _, q := range d.Requests {
				requests += q
			}
			busy += int64(d.BusyTime)
			retries += d.Retries
		}
		requeued += r.snap.Counters["stripefs.requeued_reads"] + r.snap.Counters["stripefs.requeued_writes"]
		util += r.diskUtil
	}
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	m["vm.user_s"] = sec(user)
	m["vm.sys_fault_s"] = sec(sysF)
	m["vm.sys_prefetch_s"] = sec(sysP)
	m["vm.idle_s"] = sec(idle)
	m["vm.faults_non_prefetched"] = float64(nonPf)
	m["vm.faults_late"] = float64(late)
	m["vm.prefetch_issued"] = float64(issued)
	m["vm.prefetch_dropped"] = float64(dropped)
	m["vm.prefetch_unneeded"] = float64(unneeded)
	m["vm.writebacks"] = float64(wb)
	m["vm.reclaims"] = float64(reclaims)
	m["rt.inserted_pages"] = float64(inserted)
	m["rt.filter_ratio"] = ratio(filtered, inserted)
	m["rt.issued_calls"] = float64(calls)
	m["disk.requests"] = float64(requests)
	m["disk.busy_s"] = sec(busy)
	m["disk.util_mean"] = util / float64(runs)
	m["disk.retries"] = float64(retries)
	m["stripefs.requeued"] = float64(requeued)
}
