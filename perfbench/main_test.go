package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// BENCHMARK.json must list exactly the workloads and metrics the command
// reports, with the same units and directions.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the command", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, json, code []metricDef) {
		if len(json) != len(code) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the command", kind, len(json), len(code))
		}
		for i := range code {
			if json[i] != code[i] {
				t.Errorf("%s metric %d: %+v in BENCHMARK.json, %+v in the command", kind, i, json[i], code[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}

func TestRenderRequiresEveryMetric(t *testing.T) {
	m := map[string]float64{}
	for _, d := range endToEnd {
		m[d.Name] = 1
	}
	if _, err := render(&outcome{attempted: 1, metrics: m}, false); err != nil {
		t.Fatal(err)
	}
	delete(m, "p99_ms")
	if _, err := render(&outcome{attempted: 1, metrics: m}, false); err == nil {
		t.Fatal("render accepted a result without p99_ms")
	}
}

func TestKeepQuiet(t *testing.T) {
	s := time.Second
	// Mostly quiet: only the slice over the limit goes.
	q := keepQuiet([]slice{{0, s, 0.30}, {s, 2 * s, 0.01}, {2 * s, 3 * s, 0.02}, {3 * s, 4 * s, 0.00}})
	if len(q) != 3 || q.span() != 3*s || q.holds(500*time.Millisecond) || !q.holds(1500*time.Millisecond) {
		t.Fatalf("kept %+v", q)
	}
	// Mostly stolen: the quietest quarter stays.
	var all []slice
	for i, share := range []float64{0.30, 0.10, 0.20, 0.50, 0.04, 0.25, 0.15, 0.40} {
		all = append(all, slice{time.Duration(i) * s, time.Duration(i+1) * s, share})
	}
	q = keepQuiet(all)
	if len(q) != 2 || !q.holds(1500*time.Millisecond) || !q.holds(4500*time.Millisecond) {
		t.Fatalf("kept %+v", q)
	}
}

func TestStealShareTakesTheMostStolenCPU(t *testing.T) {
	prev := cpuTicks{{steal: 10, total: 1000}, {steal: 0, total: 1000}}
	cur := cpuTicks{{steal: 15, total: 1100}, {steal: 50, total: 1100}}
	if got := stealShare(prev, cur); got != 0.5 {
		t.Fatalf("steal share %v, want 0.5", got)
	}
	if got := stealShare(nil, cur); got != 0 {
		t.Fatalf("steal share without a reading %v, want 0", got)
	}
}
