package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// BENCHMARK.json at the repository root is what outside tooling reads; it
// must list exactly the workloads and metrics this program reports.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricSpec `json:"end_to_end"`
		PerLayer   []metricSpec `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if w.Why == "" {
			t.Errorf("workload %s has no why", w.Name)
		}
	}
	var want []string
	for _, w := range allWorkloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end\n%+v\nprogram\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer\n%+v\nprogram\n%+v", spec.PerLayer, perLayer())
	}
	if !reflect.DeepEqual(spec.Paths, []string{"benchmark"}) || spec.RunSeconds < 1 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}
