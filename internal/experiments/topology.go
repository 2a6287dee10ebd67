package experiments

import (
	"fmt"
	"io"

	"ibcbench/internal/geo"
	"ibcbench/internal/metrics"
	"ibcbench/internal/topo"
)

// TopologyResult is the multi-seed summary of one topology scenario:
// aggregate throughput and per-edge completion distributions.
type TopologyResult struct {
	Spec  string
	Rate  int
	Seeds int
	// Throughput is the aggregate TFPS distribution across seeds.
	Throughput metrics.Dist
	// EdgeCompleted holds per-edge completed-transfer distributions.
	EdgeCompleted []metrics.Dist
	// EdgeLabels names each edge ("hub~ibc-1").
	EdgeLabels []string
	// RoutesCompleted sums completed multi-hop routes across seeds.
	RoutesCompleted int
	// Sample is the first seed's full result, for detailed rendering.
	Sample *topo.Result
}

// BuildTopologyScenario assembles the sweep's scenario for one topology
// spec and per-edge rate without running it: every edge sustains `rate`
// requests/second for the configured windows, plus the demo multi-hop
// route on graphs that have one. Exported so the tracer-overhead
// benchmark runs exactly the workload the sweep measures, and so the
// scenario package can pin a spec's run against it.
func BuildTopologyScenario(opt Options, spec string, rate int, forwarded bool) (topo.Scenario, error) {
	tp, err := topo.ParseSpec(spec)
	if err != nil {
		return topo.Scenario{}, err
	}
	model, err := geo.ParseSpec(opt.Regions)
	if err != nil {
		return topo.Scenario{}, err
	}
	if rate <= 0 {
		return topo.Scenario{}, fmt.Errorf("experiments: topology sweep needs a per-edge rate >= 1 (got %d)", rate)
	}
	windows := opt.Windows
	if windows <= 0 {
		windows = 10
	}
	sc := topo.Scenario{
		Name:     spec,
		Topology: tp,
		Deploy:   topo.DeployConfig{Geo: model, Validators: opt.Validators, ParallelWorkers: opt.Parallel, Live: opt.Live},
		Windows:  windows,
	}
	sc.EdgeRates = make(map[int]int, len(tp.Edges))
	for i := range tp.Edges {
		sc.EdgeRates[i] = rate
	}
	if route := demoRoute(tp); route != nil {
		sc.Routes = []topo.Route{{Path: route, Transfers: rate, Forwarded: forwarded}}
	}
	return sc, nil
}

// TopologySweepMode benchmarks an interchain topology: every edge
// sustains `rate` requests/second for the configured windows, plus — on
// graphs of three or more chains — one multi-hop route between the two
// lowest-indexed non-adjacent leaves. The route runs as sequential
// transfers, or through the packet-forward middleware when forwarded is
// set. Seeds run concurrently on the parallel runner.
func TopologySweepMode(opt Options, spec string, rate int, forwarded bool) (TopologyResult, error) {
	sc, err := BuildTopologyScenario(opt, spec, rate, forwarded)
	if err != nil {
		return TopologyResult{}, err
	}
	tp := sc.Topology
	seeds := make([]int64, opt.seeds())
	for i := range seeds {
		seeds[i] = int64(100*rate + i)
	}
	type seedRun struct {
		res *topo.Result
		err error
	}
	results := ParallelMap(seeds, opt.Workers, func(seed int64) seedRun {
		res, rerr := sc.Run(seed)
		return seedRun{res: res, err: rerr}
	})
	out := TopologyResult{Spec: spec, Rate: rate, Seeds: len(seeds)}
	var tputs []float64
	perEdge := make([][]float64, len(tp.Edges))
	for i, r := range results {
		if r.err != nil {
			return TopologyResult{}, fmt.Errorf("experiments: scenario %s (seed %d): %w", spec, seeds[i], r.err)
		}
		res := r.res
		if out.Sample == nil {
			out.Sample = res
		}
		tputs = append(tputs, res.Throughput)
		out.RoutesCompleted += res.RoutesCompleted
		for i, e := range res.Edges {
			perEdge[i] = append(perEdge[i], float64(e.Completion[metrics.StatusCompleted]))
		}
	}
	out.Throughput = metrics.Summarize(tputs)
	for i, samples := range perEdge {
		out.EdgeCompleted = append(out.EdgeCompleted, metrics.Summarize(samples))
		out.EdgeLabels = append(out.EdgeLabels,
			out.Sample.Edges[i].From+"~"+out.Sample.Edges[i].To)
	}
	return out, nil
}

// demoRoute picks a representative multi-hop path: the two
// lowest-indexed chains that do not share an edge, via BFS. Nil when
// every pair is adjacent (two-chain, mesh).
func demoRoute(tp topo.Topology) []int {
	for a := 0; a < len(tp.Chains); a++ {
		for b := a + 1; b < len(tp.Chains); b++ {
			if _, adjacent := tp.EdgeBetween(a, b); adjacent {
				continue
			}
			if path, err := tp.Route(a, b); err == nil {
				return path
			}
		}
	}
	return nil
}

// Render writes the sweep summary.
func (r TopologyResult) Render(w io.Writer) {
	fmt.Fprintf(w, "# topology %s: %d rps per edge, %d seeds\n", r.Spec, r.Rate, r.Seeds)
	fmt.Fprintf(w, "aggregate TFPS: %s\n", r.Throughput)
	fmt.Fprintf(w, "%-6s %-16s %-40s\n", "edge", "link", "completed (dist over seeds)")
	for i, d := range r.EdgeCompleted {
		fmt.Fprintf(w, "%-6d %-16s %s\n", i, r.EdgeLabels[i], d)
	}
	if r.RoutesCompleted > 0 {
		fmt.Fprintf(w, "multi-hop routes completed: %d across seeds\n", r.RoutesCompleted)
	}
	if r.Sample != nil {
		fmt.Fprintf(w, "--- sample run (seed %d) ---\n", r.Sample.Seed)
		r.Sample.Render(w)
	}
}
