package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkFile is the schema of the repository's BENCHMARK.json.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return bf
}

// listed maps each metric BENCHMARK.json names to its unit.
func listed(t *testing.T, traced bool) map[string]string {
	bf := readBenchmarkFile(t)
	out := map[string]string{}
	if traced {
		for _, m := range bf.PerLayer {
			out[m.Name] = m.Unit
		}
	} else {
		for _, m := range bf.EndToEnd {
			out[m.Name] = m.Unit
		}
	}
	return out
}

// runReport is one in-process run's printed metrics and final JSON line.
type runReport struct {
	printed map[string]string // name -> unit, from the text lines
	values  map[string]float64
	res     result
}

// runBench runs one workload in process with one operation (one
// request per serve-assign segment) and parses what it printed.
func runBench(t *testing.T, workload string, traced bool) runReport {
	t.Helper()
	trace := "0"
	if traced {
		trace = "1"
	}
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", workload, "-seed", "1", "-seconds", "1", "-ops", "1", "-trace", trace, "-workdir", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace=%s exited %d\nstdout:\n%s\nstderr:\n%s", workload, trace, code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	r := runReport{printed: map[string]string{}, values: map[string]float64{}}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.res); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v", workload, err)
	}
	for _, line := range lines[:len(lines)-1] {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != workload {
			t.Fatalf("%s: line %q is not \"workload metric value unit\"", workload, line)
		}
		v, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			t.Fatalf("%s: line %q: %v", workload, line, err)
		}
		r.printed[f[1]], r.values[f[1]] = f[3], v
	}
	return r
}

// checkSchema asserts that the run printed exactly the metrics
// BENCHMARK.json lists, each with its unit, and returned them all.
func checkSchema(t *testing.T, workload string, r runReport, want map[string]string) {
	t.Helper()
	if !r.res.Correct || r.res.Failed != 0 || r.res.Attempted < 1 {
		t.Errorf("%s: result correct=%v attempted=%d failed=%d", workload, r.res.Correct, r.res.Attempted, r.res.Failed)
	}
	for name, unit := range want {
		if got, ok := r.printed[name]; !ok || got != unit {
			t.Errorf("%s: metric %s printed with unit %q, BENCHMARK.json says %q", workload, name, got, unit)
		}
		if m, ok := r.res.Metrics[name]; !ok || m.Unit != unit {
			t.Errorf("%s: metric %s missing from the JSON result or with unit %q", workload, name, m.Unit)
		}
	}
	for name := range r.printed {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: printed metric %s is not listed in BENCHMARK.json", workload, name)
		}
	}
	if len(r.res.Metrics) != len(want) {
		t.Errorf("%s: JSON result has %d metrics, BENCHMARK.json lists %d", workload, len(r.res.Metrics), len(want))
	}
}

func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the code", i, w.Name, workloads[i].name)
		}
	}
	for _, tc := range []struct {
		traced bool
		defs   []metricDef
	}{{false, endToEnd}, {true, perLayer}} {
		want := listed(t, tc.traced)
		if len(want) != len(tc.defs) {
			t.Errorf("trace=%v: BENCHMARK.json lists %d metrics, the code %d", tc.traced, len(want), len(tc.defs))
		}
		for _, d := range tc.defs {
			if want[d.name] != d.unit {
				t.Errorf("trace=%v: metric %s has unit %q in the code and %q in BENCHMARK.json", tc.traced, d.name, d.unit, want[d.name])
			}
		}
	}
}

// TestWorkloads runs every workload twice untraced and once traced on
// one seed, twice where traced counts must repeat: the output schema
// must match BENCHMARK.json, the replays must agree, and the results a
// seed determines must repeat exactly.
func TestWorkloads(t *testing.T) {
	e2e, layers := listed(t, false), listed(t, true)
	repeat := map[string][]string{
		"round-wire": {"fednet.uplink_bytes", "fednet.payload_bits"},
		"fleet-join": {"fleet.absorbed", "fleet.spliced"},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			first, second := runBench(t, w.name, false), runBench(t, w.name, false)
			checkSchema(t, w.name, first, e2e)
			if a, b := first.values["acc_pct"], second.values["acc_pct"]; a != b {
				t.Errorf("acc_pct %v then %v on the same seed", a, b)
			}
			tr := runBench(t, w.name, true)
			checkSchema(t, w.name, tr, layers)
			for _, name := range []string{"phase1.replay_match", "core.replay_match"} {
				if v, ok := tr.values[name]; !ok || v != 1 {
					t.Errorf("%s = %v, want 1", name, v)
				}
			}
			if names := repeat[w.name]; len(names) > 0 {
				again := runBench(t, w.name, true)
				for _, name := range names {
					if a, b := tr.values[name], again.values[name]; a != b || a == 0 {
						t.Errorf("%s %v then %v on the same seed", name, a, b)
					}
				}
			}
		})
	}
}
