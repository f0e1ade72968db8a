package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root declares the metrics perfbench
// prints; the two lists must name the same metrics with the same units.
func TestBenchmarkJSONMatchesPrintedMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, declared []struct{ Name, Unit string }, printed []metricDef) {
		want := map[string]string{}
		for _, d := range printed {
			want[d.name] = d.unit
		}
		for _, d := range declared {
			unit, ok := want[d.Name]
			if !ok {
				t.Errorf("%s metric %s is declared but not printed", kind, d.Name)
			} else if unit != d.Unit {
				t.Errorf("%s metric %s: declared unit %q, printed %q", kind, d.Name, d.Unit, unit)
			}
			delete(want, d.Name)
		}
		for name := range want {
			t.Errorf("%s metric %s is printed but not declared", kind, name)
		}
	}
	compare("end-to-end", spec.EndToEnd, endToEndMetrics)
	compare("per-layer", spec.PerLayer, perLayerMetrics)
}
