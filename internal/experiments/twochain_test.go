package experiments

import (
	"testing"
	"time"

	"ibcbench/internal/metrics"
	"ibcbench/internal/netem"
	"ibcbench/internal/topo"
)

// TestTwoChainDeployCompletesBatch: the paper-figure testbed relays a
// 100-transfer batch end to end on its single edge.
func TestTwoChainDeployCompletesBatch(t *testing.T) {
	d, gen := deployTwoChain(topo.DeployConfig{Seed: 11})
	d.Sched.At(time.Second, func() { gen.SubmitBatch(100) })
	if err := d.Run(3 * time.Minute); err != nil {
		t.Fatal(err)
	}
	counts := d.Links[0].Tracker.CompletionCounts()
	if counts[metrics.StatusCompleted] != 100 {
		t.Fatalf("completion = %v", counts)
	}
	if st := gen.Stats(); st.Requested != 100 || st.Failed != 0 {
		t.Fatalf("workload stats = %+v", st)
	}
}

// TestTwoChainLANIsFaster: the LAN network the fig8-lan/fig9-lan sweeps
// select completes a transfer sooner than the default 200 ms WAN.
func TestTwoChainLANIsFaster(t *testing.T) {
	run := func(network netem.Config) time.Duration {
		d, gen := deployTwoChain(topo.DeployConfig{Seed: 12, Network: network})
		d.Sched.At(time.Second, func() { gen.SubmitBatch(1) })
		if err := d.Run(2 * time.Minute); err != nil {
			t.Fatal(err)
		}
		lats := d.Links[0].Tracker.CompletionTimes()
		if len(lats) != 1 {
			t.Fatalf("%+v: completions = %d", network, len(lats))
		}
		return lats[0]
	}
	if wan, lan := run(netem.Config{}), run(netem.DefaultLAN()); lan >= wan {
		t.Fatalf("LAN latency (%v) not below WAN (%v)", lan, wan)
	}
}
