package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared reads the metric names BENCHMARK.json lists for a mode.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(Workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, Workloads)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   map[string]struct {
		Value float64
		Unit  string
	}
}

// runCLI runs the benchmark on the fastest workload and decodes its
// last output line.
func runCLI(t *testing.T, trace string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run([]string{"--workload", "mesh8", "--seed", "3", "--seconds", "0.5", "--trace", trace}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < minCompleted {
		t.Fatalf("verdict %+v\n%s", r, errOut.String())
	}
	return r
}

func checkMetrics(t *testing.T, r result, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := r.Metrics[name]
		if !ok {
			t.Errorf("metric %s missing", name)
		} else if m.Unit != unit {
			t.Errorf("metric %s in %q, BENCHMARK.json says %q", name, m.Unit, unit)
		}
	}
	for name := range r.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
}

func TestReportMatchesDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark twice")
	}
	endToEnd, perLayer := declared(t)
	r := runCLI(t, "0")
	checkMetrics(t, r, endToEnd)
	for name, m := range r.Metrics {
		if m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, want positive", name, m.Value)
		}
	}
	checkMetrics(t, runCLI(t, "1"), perLayer)
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "mesh8", "--trace", "2"},
		{"--workload", "mesh8", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("run(%v) = %d with output %q", args, code, out.String())
		}
	}
}
