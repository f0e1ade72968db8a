package main

import (
	"math"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/obs"
	"repro/internal/rt"
	"repro/internal/vm"
)

// simRec is what the simulated clock reports about one run. Every field
// is a deterministic function of the program and configuration, so two
// runs of the same job must produce equal records.
type simRec struct {
	elapsed    int64
	fp         uint64 // harness.Fingerprint of the run's output
	times      vm.TimeStats
	mem        vm.Stats
	rt         rt.Stats
	disks      []disk.Stats
	diskUtil   float64
	snap       obs.Snapshot // every counter and gauge the run registered
	dispatched int64
}

func newSimRec(res *core.Result, fp uint64) *simRec {
	snap := res.Metrics.Snapshot()
	return &simRec{
		elapsed:    int64(res.Elapsed),
		fp:         fp,
		times:      res.Times,
		mem:        res.Mem,
		rt:         res.RT,
		disks:      res.DiskStats,
		diskUtil:   res.DiskUtil,
		snap:       snap,
		dispatched: snap.Counters["sim.events_dispatched"],
	}
}

// sameSim reports whether two records of one job agree on everything
// simulated.
func sameSim(a, b *simRec) bool {
	return a.elapsed == b.elapsed && a.fp == b.fp && reflect.DeepEqual(a.snap, b.snap)
}

// simSummary holds the simulated-clock end-to-end metrics of one pass,
// computed over P against O.
type simSummary struct {
	speedupGeo, speedupMin        float64
	coverage, stallFrac, overhead float64
	speedups, coverages           []float64 // per program
}

func summarize(ref map[runKey]*simRec, progs int) simSummary {
	var s simSummary
	var logSum float64
	var covered, original, pIdle, pElapsed, pUser, oUser int64
	s.speedupMin = math.Inf(1)
	n := 0
	for p := 0; p < progs; p++ {
		o, pf := ref[runKey{p, cfgO}], ref[runKey{p, cfgP}]
		if o == nil || pf == nil {
			s.speedups = append(s.speedups, 0)
			s.coverages = append(s.coverages, 0)
			continue
		}
		sp := float64(o.elapsed) / float64(pf.elapsed)
		s.speedups = append(s.speedups, sp)
		s.coverages = append(s.coverages, pf.mem.CoverageFactor())
		logSum += math.Log(sp)
		s.speedupMin = math.Min(s.speedupMin, sp)
		n++
		covered += pf.mem.PrefetchedHits + pf.mem.PrefetchedFaults
		original += pf.mem.OriginalFaults()
		pIdle += int64(pf.times.Idle)
		pElapsed += pf.elapsed
		pUser += int64(pf.times.User)
		oUser += int64(o.times.User)
	}
	if n == 0 {
		s.speedupMin = 0
		return s
	}
	s.speedupGeo = math.Exp(logSum / float64(n))
	s.coverage = ratio(covered, original)
	s.stallFrac = ratio(pIdle, pElapsed)
	s.overhead = ratio(pUser, oUser)
	return s
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// totalAlloc returns runtime.MemStats.TotalAlloc, the heap bytes
// allocated since the process started. Reading it stops the world, so
// it is read only outside timed jobs.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// heapSampler tracks the peak of the Go heap in use (the runtime's
// HeapInuse: object bytes plus free space in spans holding objects),
// sampled after every job through runtime/metrics, which does not stop
// the world. Which jobs' garbage is still uncollected when a big job
// runs depends on the job order, so the metric is the median over
// passes of each pass's peak.
type heapSampler struct {
	samples []metrics.Sample
	peak    uint64   // of the current pass
	peaks   []uint64 // of every finished pass
}

func newHeapSampler() *heapSampler {
	return &heapSampler{samples: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.samples)
	var inuse uint64
	for _, s := range h.samples {
		if s.Value.Kind() == metrics.KindUint64 {
			inuse += s.Value.Uint64()
		}
	}
	h.peak = max(h.peak, inuse)
}

func (h *heapSampler) endPass() {
	h.peaks = append(h.peaks, h.peak)
	h.peak = 0
}

// peaksMiB returns every finished pass's peak in MiB.
func (h *heapSampler) peaksMiB() []float64 {
	xs := make([]float64, len(h.peaks))
	for i, p := range h.peaks {
		xs[i] = float64(p) / (1 << 20)
	}
	return xs
}

// medianMiB is the median pass peak in MiB.
func (h *heapSampler) medianMiB() float64 { return median(h.peaksMiB()) }
