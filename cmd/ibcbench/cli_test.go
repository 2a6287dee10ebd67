package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ibcbench/internal/scenario"
)

// Every invocation must name a known subcommand: no flat-flag alias,
// no implicit sweep, and sweep no longer hosts the trace/diff/bench
// dispatch flags. None of these cases may run a simulation, so stdout
// stays empty.
func TestUnknownSubcommand(t *testing.T) {
	stdout, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	saved := os.Stdout
	os.Stdout = stdout
	defer func() { os.Stdout = saved }()

	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"nope"}, "unknown subcommand"},
		{nil, "ibcbench help"},
		{[]string{"-experiment", "gas"}, "ibcbench help"},
		{[]string{"sweep", "-trace", "x"}, "flag provided but not defined"},
		{[]string{"sweep", "-diff", "a", "b"}, "flag provided but not defined"},
	} {
		if err := run(tc.args); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q): expected an error containing %q, got %v", tc.args, tc.want, err)
		}
	}
	info, err := stdout.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 0 {
		t.Errorf("rejected invocations wrote %d byte(s) to stdout", info.Size())
	}
}

// The help page is generated from the registries — every experiment
// entry and registered scenario must appear.
func TestHelpListsRegistries(t *testing.T) {
	var buf bytes.Buffer
	printUsage(&buf)
	out := buf.String()
	for _, want := range []string{"sweep", "search", "bench2json", "meshscale", "votescale", "quickstart", "timeoutstorm"} {
		if !strings.Contains(out, want) {
			t.Errorf("help output missing %q", want)
		}
	}
}

func TestRunScenarioCmdFromFile(t *testing.T) {
	outPath := filepath.Join(t.TempDir(), "report.json")
	var buf bytes.Buffer
	err := runScenarioCmd([]string{
		"-scenario", "../../examples/scenarios/quickstart.json", "-out", outPath,
	}, &buf)
	if err != nil {
		t.Fatalf("run quickstart: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "assertions: 3 checked, all held") {
		t.Errorf("missing assertion verdict in output:\n%s", buf.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep scenario.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not valid JSON: %v", err)
	}
	if !rep.Passed() || rep.Result == nil || rep.Spec.Name != "quickstart" {
		t.Errorf("unexpected report: passed=%v result=%p name=%q", rep.Passed(), rep.Result, rep.Spec.Name)
	}
}

// -print must emit the catalogue file byte for byte: the files are
// canonical, so `run -name X -print` and examples/scenarios/X.json
// agree.
func TestRunScenarioCmdPrint(t *testing.T) {
	var buf bytes.Buffer
	if err := runScenarioCmd([]string{"-name", "failover", "-print"}, &buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../examples/scenarios/failover.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-print output differs from examples/scenarios/failover.json:\n%s", buf.String())
	}
}

func TestRunScenarioCmdFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-scenario", "a.json", "-name", "hub"},
		{"-name", "no-such-scenario"},
	} {
		if err := runScenarioCmd(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}

func TestSuiteLint(t *testing.T) {
	var buf bytes.Buffer
	if err := runSuiteCmd([]string{"-lint"}, &buf); err != nil {
		t.Fatalf("suite -lint: %v\n%s", err, buf.String())
	}
	out := buf.String()
	if !strings.Contains(out, "lint quickstart: ok") || !strings.Contains(out, "lint clean") {
		t.Errorf("unexpected lint output:\n%s", out)
	}
}

// TestSuiteShort runs `suite`: every catalogue spec, all short enough
// for a smoke, must pass.
func TestSuiteShort(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several scenarios")
	}
	var buf bytes.Buffer
	if err := runSuiteCmd(nil, &buf); err != nil {
		t.Fatalf("suite: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"PASS quickstart", "PASS failover", "PASS timeoutstorm", "suite: 7 scenario(s) passed"} {
		if !strings.Contains(out, want) {
			t.Errorf("suite output misses %q:\n%s", want, out)
		}
	}
	if err := runSuiteCmd([]string{"-short"}, io.Discard); err == nil {
		t.Error("suite accepted the removed -short flag")
	}
}

// The CI search smoke in miniature: the planted fixture must yield a
// counterexample within the budget, the minimal spec must land in
// -out, and the command only exits zero because -expect-violation
// says finding one is the point.
func TestSearchCmdPlantedFixture(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a search batch")
	}
	outPath := filepath.Join(t.TempDir(), "minimal.json")
	var buf bytes.Buffer
	err := runSearchCmd([]string{
		"-scenario", "../../internal/scenario/testdata/planted.json",
		"-budget", "4", "-out", outPath, "-expect-violation",
	}, &buf)
	if err != nil {
		t.Fatalf("search: %v\n%s", err, buf.String())
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	min, err := scenario.Parse(data)
	if err != nil {
		t.Fatalf("minimal spec does not parse: %v", err)
	}
	if len(min.Chaos) == 0 || min.Faults != nil || min.Seed == 0 {
		t.Errorf("minimal spec not committable: chaos=%d faults=%v seed=%d", len(min.Chaos), min.Faults, min.Seed)
	}
	// Without -expect-violation the same find is a nonzero exit.
	err = runSearchCmd([]string{
		"-scenario", "../../internal/scenario/testdata/planted.json", "-budget", "4",
	}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "counterexample found") {
		t.Errorf("expected counterexample-found error, got %v", err)
	}
}

func TestDiffCmdPositionalsAndTrailingFlags(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, v float64) string {
		p := filepath.Join(dir, name)
		doc := map[string]any{"config": map[string]any{"experiment": "topo"}, "topo": map[string]any{"throughput": v}}
		data, _ := json.Marshal(doc)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	oldP, newP := mk("old.json", 100), mk("new.json", 101)
	var buf bytes.Buffer
	if err := runDiffCmd([]string{oldP, newP, "-fail-on-change", "10"}, &buf); err != nil {
		t.Fatalf("diff within tolerance: %v\n%s", err, buf.String())
	}
	if err := runDiffCmd([]string{oldP}, &bytes.Buffer{}); err == nil {
		t.Error("one positional: expected usage error")
	}
	if err := runDiffCmd([]string{oldP, mk("worse.json", 200), "-fail-on-change", "10"}, &bytes.Buffer{}); err == nil {
		t.Error("big move with armed gate: expected an error")
	}
}

func TestBench2JSONCmd(t *testing.T) {
	dir := t.TempDir()
	raw := filepath.Join(dir, "bench.txt")
	if err := os.WriteFile(raw, []byte("BenchmarkThing-8   10   1500 ns/op\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "bench.json")
	if err := runBench2JSONCmd([]string{raw, "-out", outPath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "BenchmarkThing") {
		t.Errorf("converted doc missing benchmark name:\n%s", data)
	}
	if err := runBench2JSONCmd(nil, &bytes.Buffer{}); err == nil {
		t.Error("no positional: expected usage error")
	}
}

// The trace subcommand's record->validate->analyze loop on a small run.
func TestTraceCmdLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("runs an instrumented scenario")
	}
	tracePath := filepath.Join(t.TempDir(), "trace.json")
	var buf bytes.Buffer
	if err := runTraceCmd([]string{"-out", tracePath, "-scenario", filepath.Join("testdata", "trace_two.json"), "-seed", "7"}, &buf); err != nil {
		t.Fatalf("trace record: %v", err)
	}
	var check bytes.Buffer
	if err := runTraceCmd([]string{"-validate", tracePath}, &check); err != nil {
		t.Fatalf("trace validate: %v\n%s", err, check.String())
	}
	if !strings.Contains(check.String(), "OK") {
		t.Errorf("unexpected validate output: %s", check.String())
	}
	var ana bytes.Buffer
	if err := runTraceCmd([]string{"-analyze", tracePath, "-top", "5"}, &ana); err != nil {
		t.Fatalf("trace analyze: %v", err)
	}
	if !strings.Contains(ana.String(), "span tree") {
		t.Errorf("unexpected analyze output:\n%s", ana.String())
	}
	for _, args := range [][]string{
		nil,
		{"-summary"},
		{"-summary", "-name", "no-such-scenario"},
		{"-summary", "-name", "hub", "-topology", "hub:3"},
	} {
		if err := runTraceCmd(args, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}
