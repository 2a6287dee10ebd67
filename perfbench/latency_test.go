package main

import (
	"testing"
	"time"

	"ibcbench/internal/metrics"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	ramp := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	if _, err := PercentileOf(ramp(999), 0.99); err == nil {
		t.Error("p99 over 999 samples has 9 beyond it and must be refused")
	}
	p, err := PercentileOf(ramp(1000), 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 1000 || p.Value != metrics.Quantile(ramp(1000), 0.99) {
		t.Errorf("p99 = %+v", p)
	}
	if _, err := PercentileOf(ramp(19), 0.5); err == nil {
		t.Error("p50 over 19 samples has 9 beyond it and must be refused")
	}
	if p, err := PercentileOf(ramp(20), 0.5); err != nil || p.Value != 10.5 || p.N != 20 {
		t.Errorf("p50 over 20 = %+v, %v", p, err)
	}
	if _, err := PercentileOf(nil, 0.5); err == nil {
		t.Error("percentile of no samples must be refused")
	}
}

// syntheticTracker records n completed packets whose latency is i+1
// seconds (i = 0..n-1) plus one packet that never completes.
func syntheticTracker(chain string, n int) *metrics.Tracker {
	tr := metrics.NewTracker()
	for i := 0; i < n; i++ {
		key := metrics.PacketKey{SrcChain: chain, Channel: "channel-0", Sequence: uint64(i + 1)}
		start := time.Duration(i) * time.Millisecond
		for s := metrics.StepTransferBroadcast; s <= metrics.StepAckConfirmation; s++ {
			// Steps are 1/12 of the latency apart, so every gap is equal.
			at := start + time.Duration(int(s)-1)*time.Duration(i+1)*time.Second/12
			tr.Record(key, s, at)
		}
	}
	stuck := metrics.PacketKey{SrcChain: chain, Channel: "channel-0", Sequence: uint64(n + 1)}
	tr.Record(stuck, metrics.StepTransferBroadcast, 0)
	tr.Record(stuck, metrics.StepTransferConfirmation, time.Second)
	return tr
}

func TestLatencyPercentilesFromSyntheticTracker(t *testing.T) {
	trackers := []*metrics.Tracker{syntheticTracker("a", 600), syntheticTracker("b", 600)}
	lat := TransferLatencies(trackers)
	if len(lat) != 1200 {
		t.Fatalf("%d latencies, want 1200 (incomplete packets excluded)", len(lat))
	}
	p50, err := PercentileOf(lat, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p50.N != 1200 || !near(p50.Value, 300.5) {
		t.Errorf("p50 = %+v, want 300.5 over 1200", p50)
	}
	p99, err := PercentileOf(lat, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if !near(p99.Value, 594.01) {
		t.Errorf("p99 = %+v, want 594.01", p99)
	}
	if _, err := PercentileOf(TransferLatencies([]*metrics.Tracker{syntheticTracker("a", 999)}), 0.99); err == nil {
		t.Error("p99 over 999 completed packets must be refused")
	}
}

func TestStepMediansFromSyntheticTracker(t *testing.T) {
	got := StepMedians([]*metrics.Tracker{syntheticTracker("a", 1000)})
	if len(got) != metrics.NumSteps-1 {
		t.Fatalf("%d step medians, want %d", len(got), metrics.NumSteps-1)
	}
	// Latencies run 1..1000 s with a median of 500.5 s, so each of the
	// twelve equal gaps has a median of 500.5/12 s.
	for name, v := range got {
		if !near(v, 500.5/12) {
			t.Errorf("vstep.%s = %v, want %v", name, v, 500.5/12)
		}
	}
}

func TestStepNames(t *testing.T) {
	want := []string{
		"transfer_msg_extraction", "transfer_confirmation", "transfer_data_pull",
		"recv_build", "recv_broadcast", "recv_msg_extraction", "recv_confirmation",
		"recv_data_pull", "ack_build", "ack_broadcast", "ack_msg_extraction", "ack_confirmation",
	}
	for i, w := range want {
		if got := StepName(metrics.StepTransferBroadcast + 1 + metrics.Step(i)); got != w {
			t.Errorf("step %d named %q, want %q", i+2, got, w)
		}
	}
}

func near(a, b float64) bool {
	d := a - b
	return d < 1e-6 && d > -1e-6
}
