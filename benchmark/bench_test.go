package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestManifestNames pins BENCHMARK.json's shape against the program: the
// same workloads in the same order, legal and unique names, and the
// set-up metric the contract requires.
func TestManifestNames(t *testing.T) {
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(man.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	use := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q uses characters outside letters, digits, _ . -", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for i, w := range man.Workloads {
		use("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the program", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %s needs a one-line why of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, d := range man.EndToEnd {
		use("end-to-end metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
		if d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s (s, lower)")
	}
	for _, d := range man.PerLayer {
		use("per-layer metric", d.Name)
	}
}

// TestQuickProfile is the benchmark's CI: every workload, untraced and
// traced, at toy sizes and durations. It asserts that each run emits
// exactly the metrics BENCHMARK.json names for its kind, with their units,
// and that every correctness check passes.
func TestQuickProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads; skipped under -short")
	}
	man, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	resultsPath := filepath.Join(t.TempDir(), "results.jsonl")
	for _, w := range man.Workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			defs := man.EndToEnd
			if traced {
				name, defs = w.Name+"/traced", man.PerLayer
			}
			t.Run(name, func(t *testing.T) {
				cfg := config{workload: w.Name, seed: 7, seconds: 1, traced: traced, sz: quickSizes}
				if traced {
					cfg.tracePath = filepath.Join(t.TempDir(), "trace.json")
				}
				res, err := run(cfg, man)
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range res.Checks {
					if !c.OK {
						t.Errorf("check %q failed: %s", c.Name, c.Detail)
					}
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if res.Env.NProc < 1 || res.Env.GOMAXPROCS < 1 || res.Env.GoVersion == "" || res.Env.Commit == "" {
					t.Errorf("environment not recorded: %+v", res.Env)
				}

				// The result line holds exactly the manifest's metrics.
				var line struct {
					Correct   *bool `json:"correct"`
					Attempted *int64
					Failed    *int64
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(res.line()))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
					t.Fatalf("result line lacks a key: %s", res.line())
				}
				if len(line.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, BENCHMARK.json names %d", len(line.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := line.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s has unit %q, BENCHMARK.json says %q", d.Name, m.Unit, d.Unit)
					case m.Value == nil || math.IsNaN(*m.Value) || math.IsInf(*m.Value, 0):
						t.Errorf("metric %s is not a finite number", d.Name)
					case !traced && *m.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, *m.Value)
					}
				}

				if traced {
					raw, err := os.ReadFile(cfg.tracePath)
					if err != nil {
						t.Fatal(err)
					}
					var doc struct {
						TraceEvents []json.RawMessage `json:"traceEvents"`
					}
					if err := json.Unmarshal(raw, &doc); err != nil || len(doc.TraceEvents) == 0 {
						t.Errorf("trace file is not trace-event JSON with events: %v", err)
					}
				}
				if err := res.appendTo(resultsPath); err != nil {
					t.Fatal(err)
				}
			})
		}
	}

	// -compare over what was just written: a file against itself is inside
	// every bound; against a copy whose throughput halved, it is not.
	raw, err := os.ReadFile(resultsPath)
	if err != nil {
		t.Skip("no results to compare: the runs above failed")
	}
	var out bytes.Buffer
	ok, err := compareFiles(&out, man, resultsPath, resultsPath)
	if err != nil || !ok {
		t.Fatalf("a result set must agree with itself: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if rows := strings.Count(out.String(), "inside"); rows != len(man.Workloads)*len(man.EndToEnd) {
		t.Errorf("compare printed %d rows inside bound, want one per workload and metric:\n%s", rows, out.String())
	}
	worsePath := filepath.Join(t.TempDir(), "worse.jsonl")
	var worse bytes.Buffer
	for _, ln := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var r result
		if err := json.Unmarshal(ln, &r); err != nil {
			t.Fatal(err)
		}
		if m, ok := r.Metrics["work_per_s"]; ok {
			m.Value /= 2
			r.Metrics["work_per_s"] = m
		}
		b, _ := json.Marshal(&r)
		worse.Write(append(b, '\n'))
	}
	if err := os.WriteFile(worsePath, worse.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	ok, err = compareFiles(&out, man, resultsPath, worsePath)
	if err != nil || ok || strings.Count(out.String(), "OUTSIDE") != len(man.Workloads) {
		t.Errorf("halved throughput must be OUTSIDE on every workload: ok=%v err=%v\n%s", ok, err, out.String())
	}
}
