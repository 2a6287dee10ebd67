package experiments

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

func TestParallelMapPreservesOrder(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	out := ParallelMap(items, 8, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestParallelMapRunsAllItemsOnce(t *testing.T) {
	var calls atomic.Int64
	out := ParallelMap(make([]struct{}, 37), 4, func(struct{}) int {
		return int(calls.Add(1))
	})
	if calls.Load() != 37 || len(out) != 37 {
		t.Fatalf("calls = %d, len = %d", calls.Load(), len(out))
	}
}

func TestParallelMapEmptyAndSerial(t *testing.T) {
	if out := ParallelMap(nil, 4, func(int) int { return 1 }); len(out) != 0 {
		t.Fatalf("empty input gave %v", out)
	}
	out := ParallelMap([]int{1, 2, 3}, 1, func(i int) int { return i + 1 })
	if out[0] != 2 || out[2] != 4 {
		t.Fatalf("serial path broken: %v", out)
	}
}

// TestParallelSweepMatchesSerial is the acceptance check for the parallel
// seed runner: for a fixed seed grid, the worker pool must produce
// byte-identical results to serial execution.
func TestParallelSweepMatchesSerial(t *testing.T) {
	opts := func(workers int) Options {
		o := Options{Seeds: 2, Rates: []int{40, 120}, Windows: 10, Workers: workers}
		if testing.Short() {
			o.Rates = []int{60}
			o.Windows = 8
		}
		return o
	}
	serial := fmt.Sprintf("%+v", RelayerSweep(opts(1), 1, false))
	parallel := fmt.Sprintf("%+v", RelayerSweep(opts(4), 1, false))
	if serial != parallel {
		t.Fatalf("relayer sweep diverged:\nserial:   %s\nparallel: %s", serial, parallel)
	}
	if testing.Short() {
		// The Tendermint identity check rides only in full mode; short
		// mode keeps the relayer identity plus the (fast) topology one.
		return
	}
	sOpt, pOpt := opts(1), opts(4)
	sOpt.Rates, pOpt.Rates = []int{500, 2000}, []int{500, 2000}
	sOpt.Windows, pOpt.Windows = 5, 5
	serial = fmt.Sprintf("%+v", Tendermint(sOpt))
	parallel = fmt.Sprintf("%+v", Tendermint(pOpt))
	if serial != parallel {
		t.Fatalf("tendermint sweep diverged:\nserial:   %s\nparallel: %s", serial, parallel)
	}
}

func TestTopologySweep(t *testing.T) {
	opt := Options{Seeds: 2, Windows: 3}
	res, err := TopologySweepMode(opt, "hub:2", 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput.Mean <= 0 {
		t.Fatalf("no aggregate throughput: %+v", res.Throughput)
	}
	if len(res.EdgeCompleted) != 2 {
		t.Fatalf("edges = %d, want 2", len(res.EdgeCompleted))
	}
	for i, d := range res.EdgeCompleted {
		if d.Mean <= 0 {
			t.Fatalf("edge %d completed nothing", i)
		}
	}
	// hub:2 has a spoke-to-spoke non-adjacent pair -> a demo route runs.
	if res.RoutesCompleted != opt.Seeds {
		t.Fatalf("routes completed = %d, want %d", res.RoutesCompleted, opt.Seeds)
	}
	var sb strings.Builder
	res.Render(&sb)
	for _, want := range []string{"topology hub:2", "aggregate TFPS", "sample run"} {
		if !strings.Contains(sb.String(), want) {
			t.Fatalf("render missing %q:\n%s", want, sb.String())
		}
	}

	if _, err := TopologySweepMode(opt, "ring:9", 4, false); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestTopologySweepParallelMatchesSerial(t *testing.T) {
	run := func(workers int) string {
		res, err := TopologySweepMode(Options{Seeds: 2, Windows: 3, Workers: workers}, "line:3", 3, false)
		if err != nil {
			t.Fatal(err)
		}
		// Render (not %+v): Sample is a pointer whose address differs.
		var sb strings.Builder
		res.Render(&sb)
		return sb.String()
	}
	if s, p := run(1), run(4); s != p {
		t.Fatalf("topology sweep diverged:\nserial:   %s\nparallel: %s", s, p)
	}
}
