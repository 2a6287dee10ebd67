package workload

import (
	"testing"
	"time"

	"ibcbench/internal/chain"
	"ibcbench/internal/metrics"
	"ibcbench/internal/tendermint/rpc"
)

func testEnv(seed int64) (*chain.Testbed, *Generator, *metrics.Tracker) {
	tb := chain.NewTestbed(seed, false)
	tracker := metrics.NewTracker()
	node := tb.Pair.A.AddRPCNode(rpc.Config{})
	g := New(tb.Sched, tb.RNG, tb.Pair, node, tracker)
	tb.Start()
	return tb, g, tracker
}

func TestSubmitBatchCommits(t *testing.T) {
	tb, g, tracker := testEnv(1)
	tb.Sched.At(time.Second, func() { g.SubmitBatch(250) })
	if err := tb.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Requested != 250 || st.Submitted != 250 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// 250 transfers = 3 txs (100+100+50) from 3 distinct accounts.
	ok, _ := tb.Pair.A.App.TxStats()
	if ok != 3 {
		t.Fatalf("committed txs = %d, want 3", ok)
	}
	// Broadcast + confirmation recorded for every packet.
	if tracker.Tracked() != 250 {
		t.Fatalf("tracked = %d", tracker.Tracked())
	}
	counts := tracker.CompletionCounts()
	if counts[metrics.StatusInitiated] != 250 {
		t.Fatalf("counts = %v (no relayer, should all be initiated)", counts)
	}
}

func TestAccountsRotateAcrossWindows(t *testing.T) {
	tb, g, _ := testEnv(2)
	g.RunConstantRate(40, 3) // 200 transfers = 2 txs per window, 3 windows
	if err := tb.Run(40 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Requested != 600 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Submitted != 600 {
		t.Fatalf("submitted = %d; account reuse stalled submission", st.Submitted)
	}
}

func TestInjectDirectSingleBlock(t *testing.T) {
	tb, g, _ := testEnv(3)
	tb.Sched.At(time.Millisecond, func() { g.InjectDirect(1000) })
	if err := tb.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	// All 10 txs land in one block.
	found := false
	for h := int64(1); h <= tb.Pair.A.Store.Height(); h++ {
		cb, _ := tb.Pair.A.Store.Block(h)
		if len(cb.Block.Data) == 10 {
			found = true
		} else if len(cb.Block.Data) != 0 {
			t.Fatalf("txs split across blocks: %d at height %d", len(cb.Block.Data), h)
		}
	}
	if !found {
		t.Fatal("no single block carried all injected txs")
	}
}
