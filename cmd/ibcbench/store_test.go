package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"ibcbench/internal/store"
)

// TestStoreFlagArchivesRuns drives the CLI auto-archival path end to
// end: two topo runs and one traced run of the hub spec land in the
// same store, the traced run carries a validated trace plus provenance
// and its spec (seed included) as the config header, and the trend
// across the archived documents is readable.
func TestStoreFlagArchivesRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full CLI runs")
	}
	dir := filepath.Join(t.TempDir(), "runs")
	base := []string{"sweep", "-experiment", "topo", "-topology", "hub:3", "-rate", "3", "-seeds", "1", "-windows", "2", "-store", dir}
	if err := run(base); err != nil {
		t.Fatalf("first archived run: %v", err)
	}
	if err := run(append(base, "-seed", "43")); err != nil {
		t.Fatalf("second archived run: %v", err)
	}
	trace := filepath.Join(t.TempDir(), "trace.json")
	if err := run([]string{"trace", "-out", trace, "-name", "hub", "-store", dir}); err != nil {
		t.Fatalf("traced archived run: %v", err)
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	runs := st.Runs()
	if len(runs) != 3 {
		t.Fatalf("archived runs = %d, want 3", len(runs))
	}
	var traced *store.Meta
	for i := range runs {
		if runs[i].Kind == "trace" {
			traced = &runs[i]
			continue
		}
		if runs[i].Config["topology"] != "hub:3" {
			t.Errorf("run %s config header not lifted: %v", runs[i].ID, runs[i].Config)
		}
	}
	if traced == nil {
		t.Fatal("no trace-kind run archived")
	}
	if tp, _ := traced.Config["topology"].(map[string]any); tp["preset"] != "hub:3" || traced.Seed != 500 {
		t.Errorf("traced run's spec header not lifted (seed %d): %v", traced.Seed, traced.Config)
	}
	if !traced.HasTrace() || !*traced.TraceValid {
		t.Fatalf("traced run missing valid trace badge: %+v", traced)
	}
	if _, err := st.Trace(traced.ID); err != nil {
		t.Fatalf("stored trace unreadable: %v", err)
	}
	_, payload, err := st.Get(traced.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(payload, []byte(`"Provenance"`)) || !bytes.Contains(payload, []byte(`"GoVersion"`)) {
		t.Error("archived traced result lacks provenance stamp")
	}

	points, err := st.Trend("topo.Sample.BlocksPerSec", "experiment")
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("experiment trend points = %d, want 2", len(points))
	}
	for _, p := range points {
		if p.Value <= 0 {
			t.Errorf("trend value %v not positive", p.Value)
		}
	}
}
