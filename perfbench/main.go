// Command perfbench is ibcbench's benchmark. It runs one workload spec
// through the public scenario and topo API, times the runs from outside
// the program, checks every run's outputs, and prints each metric by name
// with its unit. The last line of its output is one JSON object: the
// end-to-end metrics, or with --trace 1 the per-layer split.
//
//	bash perfbench/run.sh --workload relay-wan --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", Workloads))
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics; 1 adds a CPU-profiled run and reports the per-layer split")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := LoadSpec(*workload)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
		}
		return 2
	}
	// Load comes from one goroutine. GOMAXPROCS is capped at the core
	// count and at 2, the reference host's size, so GC has at most one
	// spare core wherever the benchmark runs.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))
	b := &bench{
		spec:   spec,
		seed:   *seed,
		budget: time.Duration(*seconds * float64(time.Second)),
		trace:  *trace == 1,
		log:    stderr,
	}
	rep, err := b.run()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	writeReport(stdout, *workload, *seed, rep)
	return 0
}

// writeReport prints an aligned table of the metrics, then the JSON line.
func writeReport(w io.Writer, workload string, seed int64, rep *report) {
	fmt.Fprintf(w, "workload %s seed %d: correct=%v attempted=%d failed=%d\n",
		workload, seed, rep.correct, rep.attempted, rep.failed)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(rep.metrics))
	for _, m := range rep.metrics {
		fmt.Fprintf(w, "  %-28s %16.6g %s\n", m.name, m.value, m.unit)
		ms[m.name] = value{m.value, m.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, ms})
	fmt.Fprintln(w, string(line))
}
