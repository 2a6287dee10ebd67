package relayer

import (
	"testing"
	"time"

	"ibcbench/internal/chain"
	"ibcbench/internal/metrics"
	"ibcbench/internal/tendermint/rpc"
	"ibcbench/internal/workload"
)

// TestClearRecoversDroppedFrames drives the clear-interval rescan path: a
// subscription shim replaces the frames of a few source heights with
// "failed to collect events" errors, and the relayer's periodic clearing
// pass must rescan those blocks and deliver every packet anyway. The
// pinned counters and completion span fingerprint the rescan's
// virtual-time behaviour (guarding the shared-scan refactor).
func TestClearRecoversDroppedFrames(t *testing.T) {
	tb := chain.NewTestbed(31, false)
	tracker := metrics.NewTracker()
	rcfg := DefaultConfig("hermes-clear")
	rcfg.Tracker = tracker
	rcfg.ClearIntervalBlocks = 2
	r := New(tb.Sched, tb.RNG, rcfg, tb.Pair)
	// Subscribe through a shim instead of r.Start(): frames of heights
	// 2-6 on chain A are corrupted into frame-too-large errors.
	drop := func(h int64) bool { return h >= 2 && h <= 6 }
	r.a.rpc.Subscribe(r.host, func(f *rpc.EventFrame) {
		if drop(f.Height) {
			r.onFrame(r.a, r.b, &rpc.EventFrame{Height: f.Height, BlockTime: f.BlockTime, Err: rpc.ErrFrameTooLarge})
			return
		}
		r.onFrame(r.a, r.b, f)
	})
	r.b.rpc.Subscribe(r.host, func(f *rpc.EventFrame) { r.onFrame(r.b, r.a, f) })
	gen := workload.New(tb.Sched, tb.RNG, tb.Pair, r.EndpointRPC("ibc-0"), tracker)
	tb.Start()
	tb.Sched.At(time.Second, func() { gen.SubmitBatch(300) })
	if err := tb.Run(10 * time.Minute); err != nil {
		t.Fatal(err)
	}
	counts := tracker.CompletionCounts()
	st := r.Stats()
	lat := tracker.CompletionTimes()
	t.Logf("counts=%v stats=%+v nlat=%d first=%v last=%v", counts, st, len(lat), lat[0], lat[len(lat)-1])
	if counts[metrics.StatusCompleted] != 300 {
		t.Fatalf("completion = %v (stats %+v)", counts, st)
	}
	if st.FramesLost != 5 {
		t.Fatalf("FramesLost = %d, want 5", st.FramesLost)
	}
	// Exact virtual-time pins: the rescan must stay byte-identical to the
	// pinned run, not just functionally correct. Re-captured when the
	// network moved to per-sender-host latency streams (the partition-
	// independent draw order the parallel runner relies on).
	if first, last := lat[0], lat[len(lat)-1]; first != 29792861428*time.Nanosecond || last != 30143147904*time.Nanosecond {
		t.Fatalf("completion span = [%v, %v], want [29.792861428s, 30.143147904s]", first, last)
	}
}
