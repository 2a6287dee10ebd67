package main

// The benchmark loop: run the workload back to back for the time budget,
// timing set-up before every run and checking every run, and reduce the
// runs to medians. With tracing on, the budget is split between untraced
// runs and CPU-profiled runs of the same seed, and the per-layer split
// is reported instead of the end-to-end metrics.

import (
	"bytes"
	"embed"
	"fmt"
	"io"
	"sort"
	"time"

	"ibcbench/internal/metrics"
	"ibcbench/internal/topo"
)

//go:embed workloads/*.json
var specFS embed.FS

// Workloads names the embedded workload specs, in report order.
var Workloads = []string{"relay-wan", "votes-v32", "mesh8"}

// LoadSpec returns a workload's spec file.
func LoadSpec(name string) ([]byte, error) {
	for _, w := range Workloads {
		if w == name {
			return specFS.ReadFile("workloads/" + name + ".json")
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, Workloads)
}

const (
	// Before every run, set-up is timed at least setupMinReps times and
	// until setupBudget is spent, so the set-up median samples the same
	// stretch of time as the runs.
	setupMinReps = 3
	setupBudget  = 25 * time.Millisecond
	// minRuns is the fewest timed runs per phase, however short the
	// budget.
	minRuns = 3
	// minCompleted is the fewest transfers a workload must complete: a
	// p99 needs minTail samples beyond it.
	minCompleted = 1000
)

// metric is one reported figure.
type metric struct {
	name  string
	value float64
	unit  string
}

// report is the benchmark's verdict.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
}

// bench runs one workload at one seed.
type bench struct {
	spec   []byte
	seed   int64
	budget time.Duration
	trace  bool
	log    io.Writer

	setups    []setupTimes
	problems  []string
	attempted int
	failed    int
	// expect is the first successful run's stats; every later run of
	// the seed must match its result digest. obs is what that run's
	// deployment showed.
	expect *runStats
	obs    observation
}

func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	b.problems = append(b.problems, msg)
	fmt.Fprintln(b.log, "perfbench: FAIL:", msg)
}

// runPhase runs the workload back to back until the budget is spent (at
// least minRuns times) and returns the successful runs' stats. With
// warmUp, the first run is checked but left out of the stats, so lazy
// initialisation and first heap growth do not skew the medians.
func (b *bench) runPhase(sc topo.Scenario, budget time.Duration, warmUp bool, fold *Fold) []runStats {
	var out []runStats
	end := time.Now().Add(budget)
	for i := 0; time.Now().Before(end) || (len(out) < minRuns && i < 2*minRuns); i++ {
		b.timeSetUp()
		var prof *bytes.Buffer
		if fold != nil {
			prof = new(bytes.Buffer)
		}
		st, res, dep, err := runOnce(sc, b.seed, prof)
		if err != nil {
			b.problem("run: %v", err)
			if b.expect != nil {
				b.attempted += b.expect.requested
				b.failed += b.expect.requested
			} else {
				b.attempted++
				b.failed++
			}
			continue
		}
		fmt.Fprintf(b.log, "perfbench: run %d traced=%v wall=%.3fs cpu=%.3fs completed=%d/%d\n",
			i, fold != nil, st.wall.Seconds(), st.cpu.Seconds(), st.completed, st.requested)
		b.attempted += st.requested
		b.failed += st.requested - st.completed
		if len(st.violations) > 0 {
			b.failed += st.completed
			for _, v := range st.violations {
				b.problem("assertion %s", v)
			}
			continue
		}
		if b.expect == nil {
			b.expect = &st
			b.obs = b.observe(res, dep)
		} else if st.digest != b.expect.digest {
			b.problem("result digest %x differs from the first run's %x at the same seed", st.digest[:8], b.expect.digest[:8])
		}
		if fold != nil {
			p, err := ParseProfile(prof.Bytes())
			if err == nil {
				var f Fold
				if f, err = FoldProfile(p); err == nil {
					fold.Add(f)
				}
			}
			if err != nil {
				b.problem("cpu profile: %v", err)
			}
		}
		if !(warmUp && i == 0) {
			out = append(out, st)
		}
	}
	return out
}

// timeSetUp records set-up passes until the per-run set-up budget is
// spent.
func (b *bench) timeSetUp() {
	end := time.Now().Add(setupBudget)
	for i := 0; i < setupMinReps || time.Now().Before(end); i++ {
		_, st, err := setUp(b.spec, b.seed)
		if err != nil {
			b.problem("set-up: %v", err)
			return
		}
		b.setups = append(b.setups, st)
	}
}

// run executes the benchmark and builds the report.
func (b *bench) run() (*report, error) {
	sc, _, err := setUp(b.spec, b.seed)
	if err != nil {
		return nil, err
	}
	budget := b.budget
	if b.trace {
		budget /= 2
	}
	runs := b.runPhase(sc, budget, true, nil)
	if b.expect == nil {
		b.problem("no run succeeded")
		return b.report(nil), nil
	}
	if !b.trace {
		return b.report(b.endToEnd(runs)), nil
	}
	var fold Fold
	traced := b.runPhase(sc, budget, false, &fold)
	if len(traced) == 0 {
		b.problem("no traced run succeeded")
		return b.report(nil), nil
	}
	return b.report(b.perLayer(runs, traced, fold)), nil
}

func (b *bench) report(ms []metric) *report {
	return &report{correct: len(b.problems) == 0, attempted: max(b.attempted, 1), failed: b.failed, metrics: ms}
}

// observation holds what one run's deployment shows beyond its stats.
type observation struct {
	p50, p99       Percentile
	counts         []metric
	vsteps         map[string]float64
	replayDecode   time.Duration
	replayVerify   time.Duration
	completedRatio float64
}

// observe checks and reads the first successful run's result and
// deployment.
func (b *bench) observe(res *topo.Result, dep *topo.Deployment) observation {
	var trackers []*metrics.Tracker
	for _, l := range dep.Links {
		trackers = append(trackers, l.Tracker)
	}
	var o observation
	latencies := TransferLatencies(trackers)
	completed := res.Total[metrics.StatusCompleted]
	if len(latencies) != completed {
		b.problem("trackers hold %d latencies for %d completed transfers", len(latencies), completed)
	}
	if completed < minCompleted {
		b.problem("%d transfers completed, want at least %d", completed, minCompleted)
	}
	var err error
	if o.p50, err = PercentileOf(latencies, 0.5); err != nil {
		b.problem("%v", err)
	}
	if o.p99, err = PercentileOf(latencies, 0.99); err != nil {
		b.problem("%v", err)
	}
	o.completedRatio = float64(completed) / float64(max(b.expect.requested, 1))
	if b.trace {
		o.counts = layerCounts(res, dep)
		o.vsteps = StepMedians(trackers)
		if o.replayDecode, err = replayDecode(dep); err != nil {
			b.problem("%v", err)
		}
		if o.replayVerify, err = replayVerifyCommit(dep); err != nil {
			b.problem("%v", err)
		}
	}
	return o
}

// endToEnd reduces untraced runs to the user-visible metrics.
func (b *bench) endToEnd(runs []runStats) []metric {
	o := b.obs
	perTransfer := func(v uint64, st runStats) float64 { return float64(v) / float64(max(st.completed, 1)) }
	return []metric{
		{"setup_s", medianOf(b.setups, func(s setupTimes) float64 { return s.total().Seconds() }), "s"},
		{"wall_s_per_vhour", medianOf(runs, func(s runStats) float64 { return s.wall.Seconds() / s.vhours }), "s/vh"},
		{"cpu_s_per_vhour", medianOf(runs, func(s runStats) float64 { return s.cpu.Seconds() / s.vhours }), "s/vh"},
		{"allocs_per_transfer", medianOf(runs, func(s runStats) float64 { return perTransfer(s.mallocs, s) }), "count"},
		{"alloc_bytes_per_transfer", medianOf(runs, func(s runStats) float64 { return perTransfer(s.allocBytes, s) }), "B"},
		{"peak_heap_mb", medianOf(runs, func(s runStats) float64 { return float64(s.peakHeap) / 1e6 }), "MB"},
		{"xfer_latency_p50_s", o.p50.Value, "s"},
		{"xfer_latency_p99_s", o.p99.Value, "s"},
		{"tfps", b.expect.throughput, "1/s"},
		{"completed_ratio", o.completedRatio, "ratio"},
	}
}

// perLayer reduces untraced and traced runs to the per-layer split.
func (b *bench) perLayer(runs, traced []runStats, f Fold) []metric {
	o := b.obs
	var vhours float64
	for _, st := range traced {
		vhours += st.vhours
	}
	ms := append([]metric(nil), o.counts...)
	ms = append(ms,
		metric{"runtime.mallocs", medianOf(runs, func(s runStats) float64 { return float64(s.mallocs) }), "count"},
		metric{"runtime.alloc_bytes", medianOf(runs, func(s runStats) float64 { return float64(s.allocBytes) }), "B"},
		metric{"runtime.gc_cycles", medianOf(runs, func(s runStats) float64 { return float64(s.gcCycles) }), "count"},
		metric{"runtime.gc_pause_s", medianOf(runs, func(s runStats) float64 { return s.gcPause.Seconds() }), "s"},
	)
	for _, l := range Layers {
		ms = append(ms, metric{"cpu." + l, nanosPerVHour(f.Layer[l], vhours), "s/vh"})
	}
	for _, l := range Libs {
		ms = append(ms, metric{"lib." + l, nanosPerVHour(f.Lib[l], vhours), "s/vh"})
	}
	wall := func(s runStats) float64 { return s.wall.Seconds() }
	ms = append(ms,
		metric{"cpu.samples", float64(f.Samples), "count"},
		metric{"trace.overhead_ratio", medianOf(traced, wall)/medianOf(runs, wall) - 1, "ratio"},
		metric{"phase.parse_s", medianOf(b.setups, func(s setupTimes) float64 { return s.parse.Seconds() }), "s"},
		metric{"phase.compile_s", medianOf(b.setups, func(s setupTimes) float64 { return s.compile.Seconds() }), "s"},
		metric{"phase.deploy_s", medianOf(b.setups, func(s setupTimes) float64 { return s.deploy.Seconds() }), "s"},
		metric{"phase.run_s", medianOf(runs, func(s runStats) float64 { return s.run.Seconds() }), "s"},
		metric{"phase.check_s", medianOf(runs, func(s runStats) float64 { return s.check.Seconds() }), "s"},
		metric{"phase.encode_s", medianOf(runs, func(s runStats) float64 { return s.encode.Seconds() }), "s"},
		metric{"replay.eventindex_decode_s", o.replayDecode.Seconds(), "s"},
		metric{"replay.verify_commit_s", o.replayVerify.Seconds(), "s"},
		metric{"xfer_latency.samples", float64(o.p99.N), "count"},
	)
	for s := metrics.StepTransferBroadcast + 1; s <= metrics.StepAckConfirmation; s++ {
		name := StepName(s)
		ms = append(ms, metric{"vstep." + name, o.vsteps[name], "s"})
	}
	return ms
}

func nanosPerVHour(ns int64, vhours float64) float64 {
	if vhours == 0 {
		return 0
	}
	return float64(ns) / 1e9 / vhours
}

// medianOf is the median of f over xs (0 when empty).
func medianOf[T any](xs []T, f func(T) float64) float64 {
	vals := make([]float64, len(xs))
	for i, x := range xs {
		vals[i] = f(x)
	}
	sort.Float64s(vals)
	return metrics.Quantile(vals, 0.5)
}
