package chain

import (
	"encoding/json"
	"testing"
	"time"

	"ibcbench/internal/ibc"
	"ibcbench/internal/netem"
	"ibcbench/internal/sim"
	"ibcbench/internal/tendermint/rpc"
)

func newTestChain(t *testing.T, sched *sim.Scheduler, net *netem.Network, id string) *Chain {
	t.Helper()
	return New(sched, net, Config{ChainID: id})
}

func harness(t *testing.T) (*sim.Scheduler, *netem.Network) {
	t.Helper()
	sched := sim.NewScheduler()
	rng := sim.NewRNG(1)
	return sched, netem.New(sched, rng, netem.DefaultLAN())
}

func TestNewAssemblesComponents(t *testing.T) {
	sched, net := harness(t)
	c := newTestChain(t, sched, net, "test-0")
	if c.App == nil || c.Keeper == nil || c.Transfer == nil ||
		c.Pool == nil || c.Store == nil || c.Engine == nil || c.RPC == nil {
		t.Fatalf("chain incompletely assembled: %+v", c)
	}
	if c.ID != "test-0" {
		t.Fatalf("ID = %q", c.ID)
	}
	st := c.ClientStateFor()
	if st.ChainID != "test-0" || len(st.Validators) == 0 {
		t.Fatalf("client state: %+v", st)
	}
}

func channelEnd(t *testing.T, c *Chain, port, channel string) ibc.ChannelEnd {
	t.Helper()
	raw, ok := c.App.State().Get(ibc.ChannelKey(port, channel))
	if !ok {
		t.Fatalf("%s: channel %s/%s not seeded", c.ID, port, channel)
	}
	var end ibc.ChannelEnd
	if err := json.Unmarshal(raw, &end); err != nil {
		t.Fatal(err)
	}
	return end
}

func TestLinkSeedsBothEnds(t *testing.T) {
	sched, net := harness(t)
	a := newTestChain(t, sched, net, "a")
	b := newTestChain(t, sched, net, "b")
	p := Link(a, b)
	if p.ChannelAB != "channel-0" || p.ChannelBA != "channel-0" {
		t.Fatalf("first link channels: %q / %q", p.ChannelAB, p.ChannelBA)
	}
	endA := channelEnd(t, a, p.Port, p.ChannelAB)
	endB := channelEnd(t, b, p.Port, p.ChannelBA)
	if endA.State != ibc.StateOpen || endB.State != ibc.StateOpen {
		t.Fatalf("channel ends not open: %+v / %+v", endA, endB)
	}
	if endA.CounterpartyChan != p.ChannelBA || endB.CounterpartyChan != p.ChannelAB {
		t.Fatalf("counterparty channels wrong: %+v / %+v", endA, endB)
	}
	if !a.App.State().Has(ibc.ClientStateKey(p.ClientOnA)) ||
		!b.App.State().Has(ibc.ClientStateKey(p.ClientOnB)) {
		t.Fatal("clients not seeded")
	}
}

// TestLinkOrdinalsAdvancePerChain is the multi-channel property hub and
// mesh topologies rely on: a chain's second link gets fresh identifiers.
func TestLinkOrdinalsAdvancePerChain(t *testing.T) {
	sched, net := harness(t)
	hub := newTestChain(t, sched, net, "hub")
	s1 := newTestChain(t, sched, net, "s1")
	s2 := newTestChain(t, sched, net, "s2")
	p1 := Link(hub, s1)
	p2 := Link(hub, s2)
	if p1.ChannelAB != "channel-0" || p2.ChannelAB != "channel-1" {
		t.Fatalf("hub-side channels %q then %q, want channel-0 then channel-1",
			p1.ChannelAB, p2.ChannelAB)
	}
	if p2.ChannelBA != "channel-0" {
		t.Fatalf("fresh spoke got %q, want channel-0", p2.ChannelBA)
	}
	if p1.ClientOnA == p2.ClientOnA {
		t.Fatalf("hub reused client %q for both links", p1.ClientOnA)
	}
	// Cross-references must pair each hub channel with its own spoke.
	end := channelEnd(t, hub, p2.Port, "channel-1")
	if end.CounterpartyChan != "channel-0" {
		t.Fatalf("hub channel-1 counterparty = %q", end.CounterpartyChan)
	}
}

func TestLinkAtExplicitOrdinals(t *testing.T) {
	sched, net := harness(t)
	a := newTestChain(t, sched, net, "a")
	b := newTestChain(t, sched, net, "b")
	p := LinkAt(a, b, 4, 7)
	if p.ChannelAB != "channel-4" || p.ChannelBA != "channel-7" {
		t.Fatalf("channels %q / %q", p.ChannelAB, p.ChannelBA)
	}
	if p.ClientOnA != "07-tendermint-4" || p.ClientOnB != "07-tendermint-7" {
		t.Fatalf("clients %q / %q", p.ClientOnA, p.ClientOnB)
	}
}

func TestAddRPCNodeDistinctHosts(t *testing.T) {
	sched, net := harness(t)
	c := newTestChain(t, sched, net, "c")
	n1 := c.AddRPCNode(rpc.Config{})
	n2 := c.AddRPCNode(rpc.Config{})
	if n1 == n2 {
		t.Fatal("AddRPCNode returned the same node twice")
	}
	if c.RPC == n1 || c.RPC == n2 {
		t.Fatal("full nodes aliased the primary RPC server")
	}
}

func TestTestbedProducesBlocks(t *testing.T) {
	tb := NewTestbed(3, false)
	if tb.Pair.A.ID != "ibc-0" || tb.Pair.B.ID != "ibc-1" {
		t.Fatalf("chain IDs %q / %q", tb.Pair.A.ID, tb.Pair.B.ID)
	}
	tb.Start()
	if err := tb.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	if tb.Pair.A.Store.Height() < 3 || tb.Pair.B.Store.Height() < 3 {
		t.Fatalf("heights %d / %d after 30s",
			tb.Pair.A.Store.Height(), tb.Pair.B.Store.Height())
	}
}
