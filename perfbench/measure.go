package main

// One timed run of a compiled workload, measured from outside the
// program: wall and process CPU time, allocation deltas, the heap
// high-water mark, and a digest of the result.

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"ibcbench/internal/metrics"
	"ibcbench/internal/scenario"
	"ibcbench/internal/topo"
)

// setupTimes are the spans of one Parse + Compile + Deploy pass.
type setupTimes struct {
	parse, compile, deploy time.Duration
}

func (s setupTimes) total() time.Duration { return s.parse + s.compile + s.deploy }

// setUp parses and compiles the spec, then deploys it once on its own so
// that the deploy cost is timed apart from RunDeployed (which deploys
// again).
func setUp(spec []byte, seed int64) (topo.Scenario, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	s, err := scenario.Parse(spec)
	if err != nil {
		return topo.Scenario{}, st, err
	}
	t1 := time.Now()
	sc, err := scenario.Compile(s)
	if err != nil {
		return topo.Scenario{}, st, err
	}
	t2 := time.Now()
	cfg := sc.Deploy
	cfg.Seed = seed
	if _, err := topo.Deploy(sc.Topology, cfg); err != nil {
		return topo.Scenario{}, st, err
	}
	t3 := time.Now()
	return sc, setupTimes{parse: t1.Sub(t0), compile: t2.Sub(t1), deploy: t3.Sub(t2)}, nil
}

// runStats is one timed run. wall and cpu span RunDeployed through the
// checked verdict; run and check split that span.
type runStats struct {
	wall, cpu          time.Duration
	run, check, encode time.Duration
	vhours             float64
	throughput         float64
	mallocs            uint64
	allocBytes         uint64
	gcCycles           uint64
	gcPause            time.Duration
	peakHeap           uint64
	requested          int
	completed          int
	digest             [sha256.Size]byte
	violations         []scenario.Violation
}

// runOnce executes one run at the seed; with prof set, a CPU profile of
// the timed span is written into it. The deployment is returned for
// inspection and must not be kept across runs.
func runOnce(sc topo.Scenario, seed int64, prof *bytes.Buffer) (runStats, *topo.Result, *topo.Deployment, error) {
	var st runStats
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	peak := startHeapPeak()
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			peak.stop()
			return st, nil, nil, err
		}
	}
	cpu0 := processCPU()
	t0 := time.Now()
	res, dep, err := sc.RunDeployed(seed)
	t1 := time.Now()
	if err == nil {
		st.violations = scenario.Check(dep, scenario.DefaultAssertions())
	}
	t2 := time.Now()
	cpu1 := processCPU()
	if prof != nil {
		pprof.StopCPUProfile()
	}
	st.peakHeap = peak.stop()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return st, nil, nil, err
	}
	enc, err := json.Marshal(res)
	st.encode = time.Since(t2)
	if err != nil {
		return st, nil, nil, fmt.Errorf("encode result: %w", err)
	}
	st.digest = sha256.Sum256(enc)
	st.wall, st.run, st.check = t2.Sub(t0), t1.Sub(t0), t2.Sub(t1)
	st.cpu = cpu1 - cpu0
	st.vhours = res.Duration.Hours()
	st.throughput = res.Throughput
	st.mallocs = m1.Mallocs - m0.Mallocs
	st.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	st.gcCycles = uint64(m1.NumGC - m0.NumGC)
	st.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	for _, e := range res.Edges {
		st.requested += e.Workload.Requested
	}
	st.completed = res.Total[metrics.StatusCompleted]
	return st, res, dep, nil
}

// processCPU reports the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapPeakEvery is the heap sampling period. Sampling every millisecond
// slowed runs by a quarter on a 2-vCPU VM; at 20 ms the wake-ups cost
// little and the peak is read within one period of allocation.
const heapPeakEvery = 20 * time.Millisecond

// heapPeak samples live heap object bytes every heapPeakEvery until
// stopped and keeps the maximum.
type heapPeak struct {
	quit, done chan struct{}
	sample     []rtmetrics.Sample
	peak       uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
		sample: []rtmetrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}},
	}
	h.read()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(heapPeakEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.quit:
				return
			case <-tick.C:
				h.read()
			}
		}
	}()
	return h
}

func (h *heapPeak) read() {
	rtmetrics.Read(h.sample)
	if v := h.sample[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// stop ends sampling, waits for the sampler to exit and returns the
// peak in bytes.
func (h *heapPeak) stop() uint64 {
	close(h.quit)
	<-h.done
	h.read()
	return h.peak
}
