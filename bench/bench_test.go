package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// smokeConfig shrinks every population so the four workloads, with the
// traced pass and every output check, finish in seconds even under
// -race.
func smokeConfig(t *testing.T) config {
	cfg := defaultConfig(1, 1, true)
	cfg.out = t.TempDir()
	cfg.window, cfg.warmup = time.Second, 200*time.Millisecond
	cfg.rows, cfg.queries, cfg.pool = 2000, 2000, 3
	cfg.tenants, cfg.maxResident, cfg.hotSpecs, cfg.republishEach, cfg.probeCounts = 4, 2, 50, 128, 50
	cfg.clusterTenants = 3
	cfg.minSetups, cfg.maxSetups = 2, 2
	cfg.replayPublishes, cfg.replayQueries, cfg.replayCounts, cfg.replayCycles = 4, 4, 400, 2
	return cfg
}

func TestSmoke(t *testing.T) {
	for _, d := range workloadDefs {
		t.Run(d.Name, func(t *testing.T) {
			cfg := smokeConfig(t)
			res, layers, err := run(cfg, d.Name)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("result %+v: want a correct run that sent requests and saw no failures", res)
			}
			checkMetrics(t, res.Metrics, endToEndDefs, true)
			checkMetrics(t, layers, perLayerDefs, false)
			if _, err := os.Stat(spansPath(cfg, d.Name)); err != nil {
				t.Fatalf("span file: %v", err)
			}
		})
	}
}

// checkMetrics wants exactly defs' names with their units, finite, and
// positive where positive says so.
func checkMetrics(t *testing.T, got map[string]metric, defs []metricDef, positive bool) {
	t.Helper()
	if len(got) != len(defs) {
		t.Errorf("%d metrics, want %d", len(got), len(defs))
	}
	for _, d := range defs {
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case m.Unit != d.Unit:
			t.Errorf("metric %s in %q, want %q", d.Name, m.Unit, d.Unit)
		case m.Value == math.MaxFloat64 || math.IsNaN(m.Value) || (positive && m.Value <= 0):
			t.Errorf("metric %s = %v", d.Name, m.Value)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the code's definitions the
// same, and within the limits the file's readers impose.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) || !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("command %q, paths %q", doc.Command, doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default window is %d", doc.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(doc.Workloads, workloadDefs) {
		t.Errorf("workloads differ from the code's:\n%+v\n%+v", doc.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEndDefs) {
		t.Errorf("end_to_end differs from the code's:\n%+v\n%+v", doc.EndToEnd, endToEndDefs)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayerDefs) {
		t.Errorf("per_layer differs from the code's:\n%+v\n%+v", doc.PerLayer, perLayerDefs)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloadDefs {
		if !name.MatchString(w.Name) || seen[w.Name] || len([]rune(w.Why)) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %+v", w)
		}
		seen[w.Name] = true
	}
	largest := 0.0
	for _, m := range append(append([]metricDef{}, endToEndDefs...), perLayerDefs...) {
		if !name.MatchString(m.Name) || seen[m.Name] || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v", m)
		}
		seen[m.Name] = true
		largest = max(largest, m.Bound)
	}
	for _, m := range endToEndDefs {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if s := endToEndDefs[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" || s.Bound != largest {
		t.Errorf("setup_s %+v: want unit s, lower, and the largest bound", s)
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{5, 1}, 0, 6},
		{[]float64{3.5, 1, 9, 2, 7, 4}, 1.75, 7.5},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}
