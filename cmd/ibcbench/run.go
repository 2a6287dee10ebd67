// The scenario entry points: `ibcbench run` executes one declarative
// spec (a file or a catalogue name) and checks its assertions,
// `ibcbench suite` runs the whole catalogue (examples/scenarios), and
// `ibcbench search` explores a spec's declared fault space for
// assertion violations and shrinks what it finds to a minimal replay.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ibcbench/examples"
	"ibcbench/internal/experiments"
	"ibcbench/internal/metrics"
	"ibcbench/internal/scenario"
)

// loadSpec resolves the shared -scenario/-name flag pair: a spec file
// on disk or a catalogue scenario by name, exactly one of the two.
func loadSpec(path, name string) (scenario.Spec, error) {
	var data []byte
	switch {
	case path != "" && name != "":
		return scenario.Spec{}, fmt.Errorf("ibcbench: -scenario and -name are mutually exclusive")
	case path != "":
		var err error
		if data, err = os.ReadFile(path); err != nil {
			return scenario.Spec{}, err
		}
	case name != "":
		var ok bool
		if data, ok = examples.File(name); !ok {
			return scenario.Spec{}, fmt.Errorf("ibcbench: unknown scenario %q (catalogue: %s)", name, strings.Join(examples.Names(), ", "))
		}
		path = name
	default:
		return scenario.Spec{}, fmt.Errorf("ibcbench: need -scenario FILE or -name NAME")
	}
	s, err := scenario.Parse(data)
	if err != nil {
		return scenario.Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// runScenarioCmd executes one declarative scenario:
//
//	ibcbench run -scenario spec.json [-seed N] [-out report.json] [-store DIR]
//	ibcbench run -name failover
//	ibcbench run -name failover -print   # emit the canonical spec
//
// The process exits nonzero when an assertion is violated;
// -expect-violation inverts that (CI fixtures that must fail).
func runScenarioCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ibcbench run", flag.ContinueOnError)
	var (
		specPath  = fs.String("scenario", "", "scenario spec file (JSON)")
		name      = fs.String("name", "", "catalogue scenario name (see `ibcbench help`)")
		seed      = fs.Int64("seed", 0, "override the spec's run seed (0 = spec seed, default 1)")
		outPath   = fs.String("out", "", "write the full report (spec, result, verdicts) as JSON to this file")
		storeDir  = fs.String("store", "", "archive the report into this experiment-store directory")
		printSpec = fs.Bool("print", false, "print the canonical spec encoding and exit without running")
		expect    = fs.Bool("expect-violation", false, "exit nonzero unless at least one assertion is violated")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := loadSpec(*specPath, *name)
	if err != nil {
		return err
	}
	if *printSpec {
		data, err := scenario.Encode(s)
		if err != nil {
			return err
		}
		_, err = w.Write(data)
		return err
	}
	rep, err := scenario.Run(s, *seed)
	if err != nil {
		return err
	}
	rep.Render(w)
	if *outPath != "" || *storeDir != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("marshal report: %w", err)
		}
		data = append(data, '\n')
		if *outPath != "" {
			if err := os.WriteFile(*outPath, data, 0o644); err != nil {
				return fmt.Errorf("write %s: %w", *outPath, err)
			}
			fmt.Fprintf(os.Stderr, "report written to %s\n", *outPath)
		}
		if *storeDir != "" {
			if err := archiveRun(*storeDir, "scenario", data, nil, false, os.Stderr); err != nil {
				return err
			}
		}
	}
	switch {
	case *expect && rep.Passed():
		return fmt.Errorf("scenario %s: expected an assertion violation, all %d held", s.Name, len(rep.Assertions))
	case !*expect && !rep.Passed():
		return fmt.Errorf("scenario %s: %d assertion violation(s)", s.Name, len(rep.Violations))
	}
	return nil
}

// runSuiteCmd runs every catalogue scenario and reports one verdict
// line each:
//
//	ibcbench suite [-seed N] [-workers N]
//	ibcbench suite -lint     # lint every catalogue file, no runs
func runSuiteCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ibcbench suite", flag.ContinueOnError)
	var (
		lint    = fs.Bool("lint", false, "lint the catalogue (parse, compile, name equals file stem, canonical bytes) without running anything")
		seed    = fs.Int64("seed", 0, "override every spec's run seed (0 = each spec's own)")
		workers = fs.Int("workers", 0, "scenario worker pool size (0 = all cores, 1 = serial)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	names := examples.Names()
	if *lint {
		failed := 0
		for _, n := range names {
			data, _ := examples.File(n)
			if err := scenario.Lint(n, data); err != nil {
				failed++
				fmt.Fprintf(w, "lint %s: %v\n", n, err)
				continue
			}
			fmt.Fprintf(w, "lint %s: ok\n", n)
		}
		if failed > 0 {
			return fmt.Errorf("suite: %d of %d scenario(s) failed lint", failed, len(names))
		}
		fmt.Fprintf(w, "suite: %d scenario(s) lint clean\n", len(names))
		return nil
	}
	type verdict struct {
		rep *scenario.Report
		err error
	}
	verdicts := experiments.ParallelMap(names, *workers, func(n string) verdict {
		s, err := loadSpec("", n)
		if err != nil {
			return verdict{nil, err}
		}
		rep, err := scenario.Run(s, *seed)
		return verdict{rep, err}
	})
	failed := 0
	for i, v := range verdicts {
		switch {
		case v.err != nil:
			failed++
			fmt.Fprintf(w, "FAIL %-12s %v\n", names[i], v.err)
		case !v.rep.Passed():
			failed++
			fmt.Fprintf(w, "FAIL %-12s %d violation(s)\n", names[i], len(v.rep.Violations))
			for _, viol := range v.rep.Violations {
				fmt.Fprintf(w, "     VIOLATION %s\n", viol)
			}
		default:
			done := v.rep.Result.Total[metrics.StatusCompleted] + v.rep.Result.RoutesCompleted
			fmt.Fprintf(w, "PASS %-12s %d assertion(s) held, %d transfer(s)/route(s) completed\n",
				names[i], len(v.rep.Assertions), done)
		}
	}
	if failed > 0 {
		return fmt.Errorf("suite: %d of %d scenario(s) failed", failed, len(names))
	}
	fmt.Fprintf(w, "suite: %d scenario(s) passed\n", len(names))
	return nil
}

// runSearchCmd explores a spec's fault space:
//
//	ibcbench search -scenario spec.json [-budget N] [-seed N] [-out minimal.json]
//
// A found counterexample is shrunk to the smallest violating timeline
// and written as a committable spec (-out, default alongside the
// report on stdout); the process exits nonzero on a find unless
// -expect-violation says that is the point (CI's planted fixture).
func runSearchCmd(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ibcbench search", flag.ContinueOnError)
	var (
		specPath     = fs.String("scenario", "", "scenario spec file (JSON) with a faults block")
		name         = fs.String("name", "", "catalogue scenario name (see `ibcbench help`)")
		budget       = fs.Int("budget", 0, "candidate timelines to generate and run (0 = 16)")
		seed         = fs.Int64("seed", 0, "timeline-generator seed (0 = 1); the run seed comes from the spec")
		shrinkBudget = fs.Int("shrink-budget", 0, "extra runs the minimizer may spend (0 = 64)")
		workers      = fs.Int("workers", 0, "concurrent candidate runs (0 = all cores, 1 = serial)")
		outPath      = fs.String("out", "", "write the minimal counterexample spec to this file")
		expect       = fs.Bool("expect-violation", false, "exit nonzero unless the search finds a counterexample")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	s, err := loadSpec(*specPath, *name)
	if err != nil {
		return err
	}
	res, err := scenario.Search(s, scenario.SearchOptions{
		Budget: *budget, Seed: *seed, Workers: *workers, ShrinkBudget: *shrinkBudget,
	})
	if err != nil {
		return err
	}
	res.Render(w)
	if ce := res.Counterexample; ce != nil {
		data, err := scenario.Encode(ce.Minimal)
		if err != nil {
			return err
		}
		if *outPath != "" {
			if err := os.WriteFile(*outPath, data, 0o644); err != nil {
				return fmt.Errorf("write %s: %w", *outPath, err)
			}
			fmt.Fprintf(w, "minimal reproducing spec written to %s (replay: ibcbench run -scenario %s)\n", *outPath, *outPath)
		} else {
			fmt.Fprintf(w, "minimal reproducing spec (replay with `ibcbench run -scenario <file>`):\n")
			w.Write(data)
		}
		if !*expect {
			return fmt.Errorf("search %s: counterexample found (generator seed %d, candidate %d of %d)",
				res.Spec, res.Seed, ce.Candidate+1, res.Examined)
		}
		return nil
	}
	if *expect {
		return fmt.Errorf("search %s: expected a counterexample, none found in %d candidate(s)", res.Spec, res.Examined)
	}
	return nil
}
