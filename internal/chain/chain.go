// Package chain is the composition root assembling one simulated Cosmos
// Gaia blockchain: application + IBC + transfer module + mempool +
// consensus engine + RPC full nodes, all running on a shared virtual
// clock. It also provides helpers to link two chains with an IBC channel
// the way the paper's Setup module does (§III-B).
package chain

import (
	"encoding/json"
	"fmt"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/eventindex"
	"ibcbench/internal/ibc"
	"ibcbench/internal/ibc/pfm"
	"ibcbench/internal/ibc/transfer"
	"ibcbench/internal/netem"
	"ibcbench/internal/obs"
	"ibcbench/internal/sim"
	"ibcbench/internal/tendermint/consensus"
	"ibcbench/internal/tendermint/mempool"
	"ibcbench/internal/tendermint/rpc"
	"ibcbench/internal/tendermint/store"
)

// Config parameterizes one chain.
type Config struct {
	ChainID    string
	Validators int
	// FullProofs enables real merkle state commitments and proof
	// verification (correctness mode); performance experiments disable
	// it — the proof-handling cost is modeled in virtual time either way.
	FullProofs bool
	// Consensus overrides; zero values take the paper defaults.
	Consensus consensus.Config
	// RPC overrides; zero value takes defaults.
	RPC rpc.Config
	// Obs attaches the run's observability sinks (nil = disabled). The
	// chain forwards it to consensus and samples mempool depth and
	// scheduler queue length per commit.
	Obs *obs.Obs
}

// Chain bundles every component of one blockchain.
type Chain struct {
	ID       string
	App      *app.App
	Keeper   *ibc.Keeper
	Transfer *transfer.Module
	// Forward is the packet-forward middleware stacked over Transfer on
	// the ICS-20 port (multi-hop routes via packet memos).
	Forward *pfm.Middleware
	Pool    *mempool.Pool
	Store   *store.Store
	Engine  *consensus.Engine
	RPC     *rpc.Server // primary full node
	// Events is the chain's shared event index: one decode pass per
	// committed block, consumed by every RPC node's subscribers.
	Events *eventindex.Index

	sched    *sim.Scheduler
	network  *netem.Network
	rpcNodes int
	rpcHosts []netem.Host
	links    int

	// onHost notifies listeners (the topology deployer's geo placement)
	// when a late full-node host joins the chain.
	onHost []func(netem.Host)
}

// New assembles a chain on the shared scheduler and network.
func New(sched *sim.Scheduler, network *netem.Network, cfg Config) *Chain {
	a := app.New(cfg.ChainID, cfg.FullProofs)
	keeper := ibc.NewKeeper(a)
	xfer := transfer.New(a, keeper)
	// The middleware stack: PFM rebinds the transfer port, delegating
	// plain packets to the transfer module underneath.
	fwd := pfm.New(keeper, xfer)
	pool := mempool.New(mempool.DefaultConfig(), a.CheckTx)
	stor := store.New(cfg.ChainID)

	ccfg := cfg.Consensus
	if ccfg.ChainID == "" {
		ccfg = consensus.DefaultConfig(cfg.ChainID)
	}
	if cfg.Validators > 0 {
		ccfg.Validators = cfg.Validators
	}
	if cfg.Obs != nil {
		ccfg.Obs = cfg.Obs
	}
	engine := consensus.New(sched, network, ccfg, a, pool, stor)

	rcfg := cfg.RPC
	if rcfg.BroadcastCost == 0 {
		rcfg = rpc.DefaultConfig()
	}
	c := &Chain{
		ID:       cfg.ChainID,
		App:      a,
		Keeper:   keeper,
		Transfer: xfer,
		Forward:  fwd,
		Pool:     pool,
		Store:    stor,
		Engine:   engine,
		Events:   eventindex.New(cfg.ChainID),
		sched:    sched,
		network:  network,
	}
	// The index hook is registered before any RPC node's PublishBlock, so
	// commit-hook ordering guarantees the single decode pass has run by
	// the time frames are assembled for subscribers.
	engine.OnCommit(func(cb *store.CommittedBlock) {
		infos, err := stor.TxsAtHeight(cb.Block.Header.Height)
		if err != nil {
			panic(fmt.Sprintf("chain %s: committed block %d missing from store: %v",
				cfg.ChainID, cb.Block.Header.Height, err))
		}
		c.Events.IndexTxs(cb.Block.Header.Height, cb.Block.Header.Time, infos)
	})
	if cfg.Obs != nil {
		// Per-commit level sample: mempool depth after the block's txs
		// were removed.
		depth := cfg.Obs.Reg.Histogram("chain/" + cfg.ChainID + "/mempool_depth")
		engine.OnCommit(func(*store.CommittedBlock) {
			depth.Observe(float64(pool.Size()))
		})
	}
	c.RPC = c.newRPCNode(engine.PrimaryHost(), rcfg)
	return c
}

// newRPCNode creates an RPC server backed by this chain's state.
func (c *Chain) newRPCNode(host netem.Host, cfg rpc.Config) *rpc.Server {
	srv := rpc.New(c.sched, c.network, host, cfg, c.Store, c.Pool,
		app.TxQueryCost, app.EventFrameBytes, c.App.AccountSequence, app.MsgCount, c.Events.At)
	srv.SetSettledQuery(func(p rpc.SettledProbe) bool {
		ctx := &app.Context{ChainID: c.ID, State: c.App.State(), Bank: c.App.Bank(), App: c.App}
		if p.Ack {
			// Ack/timeout settle by clearing the source commitment.
			return !c.Keeper.HasCommitment(ctx, p.Port, p.Channel, p.Sequence)
		}
		return c.Keeper.HasReceipt(ctx, p.Port, p.Channel, p.Sequence)
	})
	c.Engine.OnCommit(srv.PublishBlock)
	return srv
}

// AddRPCNode attaches an additional full node serving RPC (the paper
// runs one full node per relayer machine). It shares the canonical
// store/mempool but has its own serial query queue.
func (c *Chain) AddRPCNode(cfg rpc.Config) *rpc.Server {
	c.rpcNodes++
	host := netem.Host(fmt.Sprintf("%s/fullnode%d", c.ID, c.rpcNodes))
	if cfg.BroadcastCost == 0 {
		cfg = rpc.DefaultConfig()
	}
	c.rpcHosts = append(c.rpcHosts, host)
	for _, fn := range c.onHost {
		fn(host)
	}
	return c.newRPCNode(host, cfg)
}

// Hosts lists every network host belonging to this chain: validator
// nodes plus attached full nodes.
func (c *Chain) Hosts() []netem.Host {
	out := append([]netem.Host(nil), c.Engine.Hosts()...)
	return append(out, c.rpcHosts...)
}

// OnHost registers a callback fired for each full-node host added after
// registration (geo placement of late-created hosts).
func (c *Chain) OnHost(fn func(netem.Host)) { c.onHost = append(c.onHost, fn) }

// Start begins block production.
func (c *Chain) Start() { c.Engine.Start() }

// ClientStateFor describes this chain for a counterparty's light client.
func (c *Chain) ClientStateFor() ibc.ClientState {
	var vals []ibc.ValidatorRecord
	for _, v := range c.Engine.ValidatorSet().Validators {
		vals = append(vals, ibc.ValidatorRecord{PubKey: v.PubKey.Bytes(), Power: v.VotingPower})
	}
	return ibc.ClientState{ChainID: c.ID, Validators: vals}
}

// Pair is two chains linked by an IBC channel.
type Pair struct {
	A, B *Chain
	// PortID/ChannelID of the linked channel on both ends.
	Port      string
	ChannelAB string
	ChannelBA string
	// ClientOnA tracks B; ClientOnB tracks A.
	ClientOnA string
	ClientOnB string
}

// Link seeds both chains' IBC state with open clients, a connection and
// an unordered transfer channel (the fast-path equivalent of the paper's
// `hermes create channel` setup; the full message-driven handshake is
// exercised in the ibc package tests). Each call consumes the next free
// client/connection/channel ordinal on each chain, so a chain can be
// linked to many counterparties (hub, mesh and line topologies).
func Link(a, b *Chain) *Pair {
	ordA, ordB := a.links, b.links
	a.links++
	b.links++
	return LinkAt(a, b, ordA, ordB)
}

// LinkAt links two chains using explicit per-chain identifier ordinals:
// on a the link uses channel-<ordA>/connection-<ordA>/07-tendermint-<ordA>,
// and symmetrically on b.
func LinkAt(a, b *Chain, ordA, ordB int) *Pair {
	// Each side's light client tracks the counterparty; share that
	// chain's vote-verification engine so header commits whose signatures
	// were already admitted through its live vote path skip re-checks.
	// The read-only view keeps the light-client path off the owner's
	// counters and buffers, so it can run on another partition.
	a.Keeper.RegisterVoteVerifier(b.ID, b.Engine.VoteCache().ReadOnly())
	b.Keeper.RegisterVoteVerifier(a.ID, a.Engine.VoteCache().ReadOnly())
	p := &Pair{
		A: a, B: b,
		Port:      transfer.PortID,
		ChannelAB: fmt.Sprintf("channel-%d", ordA),
		ChannelBA: fmt.Sprintf("channel-%d", ordB),
		ClientOnA: fmt.Sprintf("07-tendermint-%d", ordA),
		ClientOnB: fmt.Sprintf("07-tendermint-%d", ordB),
	}
	connA := fmt.Sprintf("connection-%d", ordA)
	connB := fmt.Sprintf("connection-%d", ordB)
	type side struct {
		host, peer                   *Chain
		clientID, connID, chanID     string
		cpClientID, cpConnID, cpChan string
	}
	for _, s := range []side{
		{a, b, p.ClientOnA, connA, p.ChannelAB, p.ClientOnB, connB, p.ChannelBA},
		{b, a, p.ClientOnB, connB, p.ChannelBA, p.ClientOnA, connA, p.ChannelAB},
	} {
		ctx := &app.Context{
			ChainID: s.host.ID, Height: 0, Time: 0,
			State: s.host.App.State(), Bank: s.host.App.Bank(), App: s.host.App,
		}
		state := s.peer.ClientStateFor()
		state.LatestHeight = 1
		setClient(ctx, s.clientID, state)
		setConnection(ctx, s.connID, s.clientID, s.cpConnID, s.cpClientID)
		setChannel(ctx, p.Port, s.chanID, s.connID, s.cpChan)
		ctx.State.CommitTx()
	}
	return p
}

// The seeding helpers write the same stored objects the handshake would.

func setClient(ctx *app.Context, clientID string, st ibc.ClientState) {
	mustSet(ctx, ibc.ClientStateKey(clientID), st)
}

func setConnection(ctx *app.Context, connID, clientID, cpConnID, cpClientID string) {
	mustSet(ctx, ibc.ConnectionKey(connID), ibc.ConnectionEnd{
		State:                ibc.StateOpen,
		ClientID:             clientID,
		CounterpartyConnID:   cpConnID,
		CounterpartyClientID: cpClientID,
	})
}

func setChannel(ctx *app.Context, port, channel, connID, cpChannel string) {
	mustSet(ctx, ibc.ChannelKey(port, channel), ibc.ChannelEnd{
		State:            ibc.StateOpen,
		Ordering:         ibc.Unordered,
		CounterpartyPort: port,
		CounterpartyChan: cpChannel,
		ConnectionID:     connID,
		Version:          "ics20-1",
	})
	ctx.State.Set(ibc.NextSequenceSendKey(port, channel), []byte("1"))
}

func mustSet(ctx *app.Context, key string, v any) {
	raw, err := jsonMarshal(v)
	if err != nil {
		panic(err)
	}
	ctx.State.Set(key, raw)
}

// Testbed is the complete two-chain environment of the paper's
// experiments: a shared scheduler and network, two five-validator Gaia
// chains, and a linked transfer channel.
type Testbed struct {
	Sched *sim.Scheduler
	Net   *netem.Network
	RNG   *sim.RNG
	Pair  *Pair
}

// NewTestbed builds the two-chain environment of §III-C: a 200 ms RTT
// WAN and two five-validator chains, ibc-0 and ibc-1.
func NewTestbed(seed int64, fullProofs bool) *Testbed {
	sched := sim.NewScheduler()
	rng := sim.NewRNG(seed)
	network := netem.New(sched, rng, netem.DefaultWAN())
	mk := func(id string) *Chain {
		return New(sched, network, Config{ChainID: id, FullProofs: fullProofs})
	}
	a := mk("ibc-0")
	b := mk("ibc-1")
	return &Testbed{
		Sched: sched,
		Net:   network,
		RNG:   rng,
		Pair:  Link(a, b),
	}
}

// Start begins block production on both chains.
func (tb *Testbed) Start() {
	tb.Pair.A.Start()
	tb.Pair.B.Start()
}

// Run drives the simulation until the virtual deadline.
func (tb *Testbed) Run(until time.Duration) error {
	return tb.Sched.RunUntil(until)
}

// jsonMarshal is a tiny indirection so the seeding helpers don't pull
// encoding/json into the public surface.
func jsonMarshal(v any) ([]byte, error) { return json.Marshal(v) }
