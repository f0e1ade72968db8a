package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"time"

	"repro/internal/compiler"
	oocexec "repro/internal/exec"
)

// span is one timed interval of the traced run. Spans of one job share
// the job's root span as parent; a root span has parent -1.
type span struct {
	name       string
	parent     int
	start, end time.Duration
}

// compileCounts is what one compile of one (program, configuration)
// produced.
type compileCounts struct {
	prefetchRefs, releaseRefs       int
	bytecode, pageRun, oracle, call int
}

// tracer keeps the traced run's spans in memory and writes them out when
// the run ends. A nil *tracer records nothing, which is how untraced runs
// call the same code.
type tracer struct {
	epoch    time.Time
	spans    []span
	compiles map[runKey]compileCounts
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), compiles: map[runKey]compileCounts{}}
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
}

// recordCompile keeps the first compile's counts of each (program,
// configuration); later passes compile the same program the same way.
func (t *tracer) recordCompile(key runKey, plan []compiler.PlanEntry, art *oocexec.Artifact) {
	if t == nil {
		return
	}
	if _, ok := t.compiles[key]; ok {
		return
	}
	var c compileCounts
	for _, e := range plan {
		if e.Covered {
			c.prefetchRefs++
			if e.Release {
				c.releaseRefs++
			}
		}
	}
	for _, r := range art.Reports() {
		switch r.Driver {
		case "kernel":
			c.bytecode++
		case "page-run":
			c.pageRun++
		default:
			c.oracle++
		}
	}
	c.call = art.CallSites()
	t.compiles[key] = c
}

// spanTotals sums span durations by name, and counts them.
func (t *tracer) spanTotals() (map[string]time.Duration, map[string]int) {
	sum, n := map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		sum[s.name] += s.end - s.start
		n[s.name]++
	}
	return sum, n
}

// rootTotal is the summed duration of every root span.
func (t *tracer) rootTotal() time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.parent < 0 {
			d += s.end - s.start
		}
	}
	return d
}

// write stores the spans as Chrome trace events, loadable in Perfetto:
// one complete event per span, with its parent's index in args.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: 1, Args: map[string]int{"id": i, "parent": s.parent}}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(map[string]interface{}{"traceEvents": evs}); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// layerOf folds a Go package path into the repository layer it belongs
// to. Packages outside the repository go to the Go runtime or "other";
// the benchmark's own code and the harness fingerprint it calls go to
// "bench".
func layerOf(pkg string) string {
	switch {
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "main", strings.HasPrefix(pkg, "repro/internal/fault"):
		return "bench"
	case pkg == "repro/internal/locality":
		return "compiler"
	case strings.HasPrefix(pkg, "repro/internal/"):
		return strings.SplitN(strings.TrimPrefix(pkg, "repro/internal/"), "/", 2)[0]
	}
	return "other"
}

// funcPackage returns the package path of a symbol as pprof prints it,
// e.g. "repro/internal/exec" for "repro/internal/exec.(*Machine).runK".
func funcPackage(sym string) string {
	if i := strings.IndexByte(sym, '['); i >= 0 {
		sym = sym[:i] // type arguments may hold other packages' paths
	}
	slash := strings.LastIndexByte(sym, '/')
	if dot := strings.IndexByte(sym[slash+1:], '.'); dot >= 0 {
		return sym[:slash+1+dot]
	}
	return sym
}

var topLine = regexp.MustCompile(`^\s*([0-9.]+)ms\s+[0-9.]+%\s+[0-9.]+%\s+[0-9.]+ms\s+[0-9.]+%\s+(.+)$`)

// foldProfile runs the Go toolchain's pprof over CPU profiles, merged,
// and folds the flat samples by layer, as percentages of all samples.
func foldProfile(profiles []string) (map[string]float64, error) {
	args := append([]string{"tool", "pprof", "-top", "-unit=ms", "-nodecount=1000000"}, profiles...)
	cmd := exec.Command("go", args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	flat := map[string]float64{}
	var total float64
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		m := topLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ms, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return nil, err
		}
		sym := strings.TrimSuffix(m[2], " (inline)")
		flat[layerOf(funcPackage(sym))] += ms
		total += ms
	}
	if total == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %s", strings.Join(profiles, " "))
	}
	for k := range flat {
		flat[k] *= 100 / total
	}
	return flat, nil
}
