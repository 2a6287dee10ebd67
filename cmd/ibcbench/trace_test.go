package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ibcbench/internal/experiments"
)

// TestTraceExportRoundTrip runs the CLI's trace path end to end: a short
// instrumented hub run exports a Chrome trace that the structural
// validator accepts, and the summary table names the expected
// subsystems.
func TestTraceExportRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	opt := experiments.Options{Seeds: 1, Windows: 2}
	if err := runTrace(opt, "hub:3", 3, false, 7, path, true, 20, "", nil, &out); err != nil {
		t.Fatal(err)
	}
	var check bytes.Buffer
	if err := runValidateTrace(path, &check); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(check.String(), "OK") {
		t.Fatalf("validator output %q", check.String())
	}
	for _, want := range []string{"chain", "relayer", "block", "scan"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("summary misses %q:\n%s", want, out.String())
		}
	}
}

// TestTraceSummaryGolden pins the `trace -summary` rendering — the run
// report followed by the traceview flame span tree — byte for byte.
// Refresh with UPDATE_GOLDEN=1 after an intentional change.
func TestTraceSummaryGolden(t *testing.T) {
	var out bytes.Buffer
	if err := runTraceCmd([]string{"-summary", "-topology", "two", "-rate", "2", "-windows", "1", "-seed", "7"}, &out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "trace_summary.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("trace -summary output differs from %s (run UPDATE_GOLDEN on it):\n%s", golden, out.String())
	}
}

// TestTraceAnalyzeRoundTrip: an exported forwarded-route trace feeds
// the `trace -analyze` path, which prints the flame span tree and the
// critical-path tables deterministically.
func TestTraceAnalyzeRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	var out bytes.Buffer
	opt := experiments.Options{Seeds: 1, Windows: 2}
	if err := runTrace(opt, "line:3", 3, true, 7, path, false, 20, "", nil, &out); err != nil {
		t.Fatal(err)
	}
	analyze := func() string {
		var buf bytes.Buffer
		if err := runTraceAnalyze(path, 15, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	got := analyze()
	for _, want := range []string{"span tree", "chain", "# critical path", "end-to-end", "attributed"} {
		if !strings.Contains(got, want) {
			t.Fatalf("analysis misses %q:\n%s", want, got)
		}
	}
	if got != analyze() {
		t.Fatal("same trace produced different analysis output")
	}
	if err := runTraceAnalyze(filepath.Join(t.TempDir(), "missing.json"), 15, io.Discard); err == nil {
		t.Fatal("analyzer accepted a missing file")
	}
}

// TestValidateTraceRejectsBrokenDocs pins the validator's failure modes.
func TestValidateTraceRejectsBrokenDocs(t *testing.T) {
	cases := map[string]string{
		"not-json":      `{"traceEvents": [`,
		"empty":         `{"traceEvents": []}`,
		"unknown-phase": `{"traceEvents": [{"name":"x","ph":"Q","ts":0}]}`,
		"negative-dur":  `{"traceEvents": [{"name":"x","ph":"X","ts":1,"dur":-2}]}`,
		"unbalanced":    `{"traceEvents": [{"name":"p","ph":"b","cat":"pkt","id":"0x1","ts":0}]}`,
		"end-no-begin":  `{"traceEvents": [{"name":"p","ph":"e","cat":"pkt","id":"0x1","ts":0}]}`,
		"orphan-async":  `{"traceEvents": [{"name":"p","ph":"n","cat":"pkt","id":"0x1","ts":0}]}`,
	}
	dir := t.TempDir()
	for name, doc := range cases {
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := runValidateTrace(path, &out); err == nil {
			t.Fatalf("%s: validator accepted a broken document", name)
		}
	}
}
