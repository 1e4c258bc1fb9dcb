package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs every workload through both passes at smoke size, so
// `go test ./...` fails the day a refactor breaks the benchmark's
// imports, its set-up or its oracle. It asserts answers and the shape of
// the output, never a timing.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	var log bytes.Buffer
	if err := runSmoke(&log, dir); err != nil {
		t.Fatalf("smoke run failed: %v\n%s", err, log.String())
	}
	for _, w := range workloads {
		raw, err := os.ReadFile(filepath.Join(dir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(raw, &tf); err != nil {
			t.Fatalf("%s: trace file: %v", w.name, err)
		}
		byID := make(map[int]span)
		for _, s := range tf.Spans {
			byID[s.ID] = s
		}
		requests := make(map[int]bool)
		for _, s := range tf.Spans {
			requests[s.RequestID] = true
			if s.EndNS < s.StartNS {
				t.Errorf("%s: span %d (%s) ends before it starts", w.name, s.ID, s.Name)
			}
			if s.Parent < 0 {
				continue
			}
			if p, ok := byID[s.Parent]; !ok || p.RequestID != s.RequestID {
				t.Errorf("%s: span %d (%s) does not share a request id with its parent", w.name, s.ID, s.Name)
			}
		}
		if len(requests) != smokeSizes().replayOps {
			t.Errorf("%s: trace holds %d requests, want %d", w.name, len(requests), smokeSizes().replayOps)
		}
		if len(tf.SelfTimeNS) != len(tf.Spans) {
			t.Errorf("%s: %d self times for %d spans", w.name, len(tf.SelfTimeNS), len(tf.Spans))
		}
	}
}

// BENCHMARK.json at the root repeats the metric and workload names the
// program reports; the driver refuses a run whose names differ.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Why    string  `json:"why"`
		Bound  float64 `json:"bound"`
	}
	var spec struct {
		RunSeconds int     `json:"run_seconds"`
		Workloads  []entry `json:"workloads"`
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in the program", i, got.Name, got.Why, w.name, w.why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	match := func(kind string, got []entry, defs []metricDef) {
		if len(got) != len(defs) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the program reports %d", len(got), kind, len(defs))
		}
		for i, d := range defs {
			better := "lower"
			if d.higher {
				better = "higher"
			}
			if got[i].Name != d.name || got[i].Unit != d.unit || got[i].Better != better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the program", kind, i, got[i], d)
			}
			if !name.MatchString(d.name) || !unit.MatchString(d.unit) {
				t.Errorf("%s metric %q (%q) is outside the contract's character set", kind, d.name, d.unit)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEnd)
	match("per_layer", spec.PerLayer, perLayer)
	setup := spec.EndToEnd[0]
	for _, e := range spec.EndToEnd {
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", e.Name, e.Bound)
		}
		if e.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", e.Name)
		}
	}
	if setup.Name != "setup_s" {
		t.Errorf("the first end-to-end metric is %q, want setup_s", setup.Name)
	}
}
