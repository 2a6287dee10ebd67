package scenario

import (
	"encoding/json"
	"testing"

	"ibcbench/internal/experiments"
)

// TestCompileMatchesFlagInvocation is the api_redesign acceptance gate:
// a spec equivalent to `ibcbench sweep -experiment topo -topology
// hub:3 -rate 3 -windows 2` produces a byte-identical same-seed topo.Result
// to the scenario the flag path builds via BuildTopologyScenario.
func TestCompileMatchesFlagInvocation(t *testing.T) {
	const seed = 301 // the sweep's formula: 100*rate + seedIndex
	flagScenario, err := experiments.BuildTopologyScenario(
		experiments.Options{Windows: 2}, "hub:3", 3, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := flagScenario.Run(seed)
	if err != nil {
		t.Fatal(err)
	}

	spec, err := Parse([]byte(`{
		"name": "hub:3",
		"topology": {"preset": "hub:3"},
		"deploy": {},
		"workload": {
			"rate": 3,
			"windows": 2,
			"routes": [{"path": [1, 0, 2], "transfers": 3}]
		}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, seed)
	if err != nil {
		t.Fatal(err)
	}

	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, err := json.Marshal(rep.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(wantJSON) != string(gotJSON) {
		t.Fatalf("spec run diverged from flag invocation:\nflag: %s\nspec: %s", wantJSON, gotJSON)
	}
	// The flag invocation is a healthy run — the assertion pass must
	// agree without perturbing the result bytes (checked above).
	if !rep.Passed() {
		t.Errorf("assertions failed on the flag-equivalent run: %v", rep.Violations)
	}
}
