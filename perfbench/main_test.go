package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestTinyWorkloads runs every workload end to end at tiny size, untraced
// and traced, so a change that breaks the benchmark command fails here.
func TestTinyWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name + map[bool]string{false: "/untraced", true: "/traced"}[trace]
			t.Run(name, func(t *testing.T) {
				var out strings.Builder
				o := options{workload: w.name, seed: 7, seconds: 300 * time.Millisecond, trace: trace, tiny: true}
				if trace {
					o.spans = filepath.Join(t.TempDir(), "spans.csv")
				}
				rep, err := run(o, &out)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, out.String())
				}
				res := rep.result()
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%t attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.name)
					case got.Unit != m.unit:
						t.Errorf("metric %s unit %q, want %q", m.name, got.Unit, m.unit)
					case !trace && got.Value <= 0:
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
				if trace {
					if fi, err := os.Stat(o.spans); err != nil || fi.Size() == 0 {
						t.Errorf("spans file: %v", err)
					}
				}
			})
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's workload and metric lists in
// step with the program.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var spec struct {
		Workloads []named
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	for _, c := range []struct {
		list []named
		want []struct{ name, unit string }
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.list) != len(c.want) {
			t.Errorf("BENCHMARK.json lists %d metrics, program %d", len(c.list), len(c.want))
			continue
		}
		for i, m := range c.list {
			if m.Name != c.want[i].name || m.Unit != c.want[i].unit {
				t.Errorf("BENCHMARK.json metric %d is %s (%s), program has %s (%s)", i, m.Name, m.Unit, c.want[i].name, c.want[i].unit)
			}
		}
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "bulk-tmy3", "--seed", "3", "--seconds", "2", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if o.workload != "bulk-tmy3" || o.seed != 3 || o.seconds != 2*time.Second || !o.trace || o.spans == "" {
		t.Errorf("parsed %+v", o)
	}
	if _, err := parseFlags([]string{"--workload", "all"}); err != nil {
		t.Errorf("--workload all: %v", err)
	}
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "bulk-tmy3", "--trace", "2"},
		{"--workload", "bulk-tmy3", "--seconds", "0"},
		{"--workload", "bulk-tmy3", "--size", "huge"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%q) accepted", args)
		}
	}
}

func TestParseLabels(t *testing.T) {
	labels, gen, err := parseLabels([]byte(`{"generation":12,"labels":["HIGH","LOW","HIGH"]}`+"\n"), nil)
	if err != nil || gen != 12 || len(labels) != 3 || labels[1].String() != "LOW" {
		t.Errorf("got %v gen %d err %v", labels, gen, err)
	}
	for _, body := range []string{`{"labels":["HIGH"]}`, `{"generation":1,"labels":["MID"]}`, `{"generation":1,"labels":["HIGH"`} {
		if _, _, err := parseLabels([]byte(body), nil); err == nil {
			t.Errorf("parseLabels(%s) accepted", body)
		}
	}
}
