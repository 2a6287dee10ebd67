// Trace export, validation, and analysis: `trace -out` runs one
// scenario spec instrumented and writes a Chrome trace-event file (load
// it at ui.perfetto.dev or chrome://tracing), -summary prints that
// run's traceview flame span tree with total/self time per subsystem
// (-top caps the table), -validate structurally checks an exported
// file (the CI smoke step runs it against the hub spec's trace), and
// -analyze runs the traceview flame/critical-path analytics over an
// exported file.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"ibcbench/internal/experiments"
	"ibcbench/internal/obs"
	"ibcbench/internal/scenario"
	"ibcbench/internal/topo"
	"ibcbench/internal/tracecheck"
	"ibcbench/internal/traceview"
)

// runTraceCmd is the trace subcommand, covering all four trace modes:
//
//	ibcbench trace -out trace.json -name hub [-summary] [-store DIR]
//	ibcbench trace -summary -scenario spec.json  # tables only, no file
//	ibcbench trace -validate trace.json          # structural check
//	ibcbench trace -analyze trace.json -top 30   # flame + critical path
func runTraceCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ibcbench trace", flag.ContinueOnError)
	var (
		outPath   = fs.String("out", "", "write the instrumented run's Chrome trace-event file (Perfetto-loadable) here")
		summary   = fs.Bool("summary", false, "print the run's flame span tree with total/self time per subsystem")
		checkPath = fs.String("validate", "", "structurally validate this exported trace file and exit")
		anaPath   = fs.String("analyze", "", "analyze this exported trace file (flame tree + critical-path tables) and exit")
		topN      = fs.Int("top", 20, "row cap for -summary and -analyze tables (0 = unlimited)")
		specPath  = fs.String("scenario", "", "scenario spec file (JSON) to run instrumented")
		name      = fs.String("name", "", "catalogue scenario name (see `ibcbench help`)")
		seed      = fs.Int64("seed", 0, "override the spec's run seed (0 = spec seed, default 1)")
		storeDir  = fs.String("store", "", "archive the traced result (trace attached) into this experiment-store directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *checkPath != "" {
		return runValidateTrace(*checkPath, w)
	}
	if *anaPath != "" {
		return runTraceAnalyze(*anaPath, *topN, w)
	}
	if *outPath == "" && !*summary && *storeDir == "" {
		return fmt.Errorf("usage: ibcbench trace -out trace.json|-summary (-scenario FILE|-name NAME) [flags] | -validate FILE | -analyze FILE")
	}
	s, err := loadSpec(*specPath, *name)
	if err != nil {
		return err
	}
	return runTrace(s, *seed, *outPath, *summary, *topN, *storeDir, w)
}

// runTrace executes one spec (lowered by scenario.Compile) at the given
// seed (0 = the spec's own) with observability attached, optionally
// writes the Chrome trace and/or prints the flame span tree, and
// renders the run result. Assertions are not checked; `run` does that.
// With storeDir the result is archived (provenance-stamped) with the
// trace attached, validated and badged exactly like a server-side
// ingest; its config header is the spec that ran, seed included.
func runTrace(s scenario.Spec, seed int64, tracePath string, summary bool, top int, storeDir string, w io.Writer) error {
	sc, err := scenario.Compile(s)
	if err != nil {
		return err
	}
	o := obs.New()
	sc.Deploy.Obs = o
	s.Seed = s.RunSeed(seed)
	res, err := sc.Run(s.Seed)
	if err != nil {
		return err
	}
	res.Render(w)
	var trace bytes.Buffer
	if tracePath != "" || storeDir != "" {
		if err := o.Tracer.WriteChrome(&trace); err != nil {
			return fmt.Errorf("export trace: %w", err)
		}
	}
	if tracePath != "" {
		if err := os.WriteFile(tracePath, trace.Bytes(), 0o644); err != nil {
			return fmt.Errorf("write %s: %w", tracePath, err)
		}
		fmt.Fprintf(os.Stderr, "trace (%d events) written to %s\n", o.Tracer.Len(), tracePath)
	}
	if summary {
		fmt.Fprintln(w)
		traceview.WriteFlame(w, traceview.Flame(traceview.FromTracer(o.Tracer)), top)
	}
	if storeDir != "" {
		meta := experiments.CaptureRunMeta()
		res.Provenance = &topo.Provenance{
			Commit:    meta.Commit,
			GoVersion: meta.GoVersion,
			Time:      time.Now().UTC().Format(time.RFC3339),
		}
		payload, err := json.MarshalIndent(map[string]any{"config": s, "result": res}, "", "  ")
		if err != nil {
			return fmt.Errorf("marshal traced result: %w", err)
		}
		_, verr := tracecheck.Validate(trace.Bytes())
		return archiveRun(storeDir, "trace", payload, trace.Bytes(), verr == nil, os.Stderr)
	}
	return nil
}

// runTraceAnalyze runs the traceview analytics over an exported trace
// file: the aggregated flame span tree (total/self per subsystem),
// then the per-packet critical-path tables — per-step latency
// distributions grouped by edge and route hop, each step's share of
// end-to-end latency, and the explicit unattributed residual. The
// output is deterministic: same trace bytes, same tables.
func runTraceAnalyze(path string, top int, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	events, err := traceview.FromChrome(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "# %s: %d event(s)\n\n", path, len(events))
	traceview.WriteFlame(w, traceview.Flame(events), top)
	fmt.Fprintln(w)
	traceview.WriteCritPath(w, traceview.CriticalPath(events))
	return nil
}

// runValidateTrace structurally validates an exported trace via
// tracecheck.Validate: the file must parse as a trace-event document,
// complete spans need non-negative timestamps and durations, and every
// async trace must open and close in order on each (cat, id) pair. The
// first violation exits nonzero with the offending event's line and
// byte offset — the exporter writes one event per line, so the line
// number points at the exact event.
func runValidateTrace(path string, w io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	stats, err := tracecheck.Validate(data)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	fmt.Fprintf(w, "%s: OK (%d events: %s)\n", path, stats.Events, stats.PhaseList())
	return nil
}
