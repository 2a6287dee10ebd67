package scenario

import (
	"encoding/json"
	"os"
	"testing"
)

func plantedSpec(t *testing.T) Spec {
	t.Helper()
	data, err := os.ReadFile("testdata/planted.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSearchFindsPlantedViolation: the planted fixture's fault space
// only generates unhealed partitions, so a bounded search must find
// permanently-stuck packets and shrink the timeline to a single event
// that still reproduces.
func TestSearchFindsPlantedViolation(t *testing.T) {
	s := plantedSpec(t)
	res, err := Search(s, SearchOptions{Budget: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ce := res.Counterexample
	if ce == nil {
		t.Fatalf("search found no violation in %d candidates", res.Examined)
	}
	if len(ce.MinimalViolations) == 0 {
		t.Fatal("minimal timeline reported no violations")
	}
	if len(ce.Minimal.Chaos) != 1 {
		t.Errorf("shrink left %d events, want 1: %+v", len(ce.Minimal.Chaos), ce.Minimal.Chaos)
	}
	if ce.Minimal.Faults != nil {
		t.Error("minimal spec still declares a fault space")
	}
	if ce.Minimal.Seed == 0 {
		t.Error("minimal spec did not pin its run seed")
	}

	// The committable counterexample replays: encode, re-parse, run.
	enc, err := Encode(ce.Minimal)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Parse(enc)
	if err != nil {
		t.Fatalf("minimal spec does not re-parse: %v", err)
	}
	rep, err := Run(replayed, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatal("replayed minimal spec no longer violates")
	}
}

// TestSearchDeterminism: same spec + same options => byte-identical
// search results, counterexample spec included (the property that makes
// counterexamples committable regression tests).
func TestSearchDeterminism(t *testing.T) {
	s := plantedSpec(t)
	opt := SearchOptions{Budget: 4, Seed: 9}
	a, err := Search(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Search(s, opt)
	if err != nil {
		t.Fatal(err)
	}
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("same-seed searches diverged:\n%s\n%s", aj, bj)
	}
	if a.Counterexample != nil {
		ea, _ := Encode(a.Counterexample.Minimal)
		eb, _ := Encode(b.Counterexample.Minimal)
		if string(ea) != string(eb) {
			t.Fatalf("counterexample specs diverged:\n%s\n%s", ea, eb)
		}
	}
}

// TestSearchNeedsFaultSpace: specs without a declared space refuse to
// search instead of guessing one.
func TestSearchNeedsFaultSpace(t *testing.T) {
	if _, err := Search(catalogueSpec(t, "quickstart"), SearchOptions{Budget: 1}); err == nil {
		t.Fatal("search without a fault space succeeded")
	}
}
