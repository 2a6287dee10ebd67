// Package consensus implements the Tendermint BFT consensus engine
// described in §II-A of the paper: rounds with an elected proposer, two
// voting stages (pre-vote and pre-commit), 2/3+ quorums, tolerance of up
// to one third arbitrary validators, and a minimum block interval.
//
// Validators are actors exchanging signed proposal and vote messages over
// the emulated network; a designated primary full node's commit defines
// when a block (and its RPC-visible data) becomes available. Application
// execution happens once against a canonical state machine, with a
// gas-proportional virtual execution time — this is what makes "blocks
// containing large amounts of transactions increase the block interval
// beyond 5 seconds" (§III-D).
package consensus

import (
	"fmt"
	"time"

	"ibcbench/internal/abci"
	"ibcbench/internal/netem"
	"ibcbench/internal/obs"
	"ibcbench/internal/sim"
	"ibcbench/internal/simconf"
	"ibcbench/internal/tendermint/mempool"
	"ibcbench/internal/tendermint/store"
	"ibcbench/internal/tendermint/types"
	"ibcbench/internal/tendermint/votesig"
	"ibcbench/internal/valkey"
)

// voteCacheKeepHeights is the trailing window of committed heights whose
// admitted votes stay cached, serving the light-client VerifyCommit fast
// path for commits relayers submit a few blocks late.
const voteCacheKeepHeights = 32

// Config parameterizes one chain's consensus engine.
type Config struct {
	ChainID string

	// Validators is the validator-set size (paper: 5 per chain).
	Validators int

	// MinBlockInterval floors the time between consecutive proposals.
	MinBlockInterval time.Duration
	// TimeoutPropose bounds the wait for a proposal each round.
	TimeoutPropose time.Duration
	// TimeoutRoundStep bounds the prevote/precommit waits.
	TimeoutRoundStep time.Duration

	// MaxBlockBytes and MaxBlockGas bound reaped blocks (0 = unlimited).
	MaxBlockBytes int
	MaxBlockGas   uint64

	// ExecNanosPerGas converts executed gas into virtual execution time.
	ExecNanosPerGas int64
	// ProposalBytesPerSecond models block gossip bandwidth.
	ProposalBytesPerSecond int64

	// referenceVoteVerify disables the shared vote-verification engine:
	// every receiving validator re-verifies every gossiped vote (the
	// O(V^2) pre-cache behaviour). Simulation results are byte-identical
	// either way — verification is wall-clock work, not virtual time —
	// so this path exists to pin that equivalence and to count the
	// fan-out's signature checks. Only this package's tests and
	// benchmarks set it.
	referenceVoteVerify bool

	// referenceQuorumTally replaces the counted per-round tallies with
	// the original map-walk recomputation on every quorum check (O(V)
	// per received vote instead of O(1)). At most one block ID can ever
	// exceed 2/3 of total power, so map iteration order never influenced
	// the outcome; the flag exists to pin that equivalence. Only this
	// package's tests and benchmarks set it.
	referenceQuorumTally bool

	// Obs attaches the run's observability sinks; nil (the default)
	// disables instrumentation. Only the per-block commit path records
	// spans — the per-vote hot path stays untouched.
	Obs *obs.Obs
}

// DefaultConfig mirrors the paper's deployment (§III-C, §III-D).
func DefaultConfig(chainID string) Config {
	return Config{
		ChainID:                chainID,
		Validators:             simconf.DefaultValidators,
		MinBlockInterval:       simconf.MinBlockInterval,
		TimeoutPropose:         simconf.TimeoutPropose,
		TimeoutRoundStep:       simconf.TimeoutRoundStep,
		ExecNanosPerGas:        simconf.ExecNanosPerGas,
		ProposalBytesPerSecond: simconf.ProposalBytesPerSecond,
	}
}

// step is a node's position within a consensus round.
type step byte

const (
	stepPropose step = iota + 1
	stepPrevote
	stepPrecommit
	stepCommitted
)

// proposalMsg carries a proposed block between validators.
type proposalMsg struct {
	height int64
	round  int32
	block  *types.Block
}

// blockPower accumulates one block ID's voting power within a round.
type blockPower struct {
	id    types.BlockID
	power int64
}

// roundTally is one node's received votes for a (height, round, type):
// votes indexed by validator ordinal (nil = not seen) with running power
// counts, so duplicate detection and the 2/3 quorum check are O(1) per
// vote instead of a map walk over the validator set.
type roundTally struct {
	votes      []*types.Vote
	totalPower int64
	blocks     []blockPower
}

// count reports recorded votes (nil tally = none).
func (rt *roundTally) count() int {
	if rt == nil {
		return 0
	}
	n := 0
	for _, v := range rt.votes {
		if v != nil {
			n++
		}
	}
	return n
}

// add records a verified, non-duplicate vote's power.
func (rt *roundTally) add(id types.BlockID, power int64) {
	rt.totalPower += power
	for i := range rt.blocks {
		if rt.blocks[i].id == id {
			rt.blocks[i].power += power
			return
		}
	}
	rt.blocks = append(rt.blocks, blockPower{id: id, power: power})
}

// node is one validator actor.
type node struct {
	index int
	host  netem.Host
	key   *valkey.PrivKey
	addr  valkey.Address
	down  bool

	height int64
	round  int32
	step   step

	proposals  map[int32]*types.Block
	prevotes   map[int32]*roundTally
	precommits map[int32]*roundTally

	prevoted     map[int32]bool
	precommitted map[int32]bool
}

func (n *node) tally(m map[int32]*roundTally, round int32, validators int) *roundTally {
	rt, ok := m[round]
	if !ok {
		rt = &roundTally{votes: make([]*types.Vote, validators)}
		m[round] = rt
	}
	return rt
}

// pooledVote is a recyclable gossiped vote. Delivery closures capture
// the wrapper and the generation at cast time; a recycled wrapper bumps
// the generation, so stale deliveries drop without touching the reused
// vote. Signature bytes are never pooled (Sign allocates fresh), so
// commits and the verification cache can retain them safely.
type pooledVote struct {
	v   types.Vote
	gen uint64
}

// Engine drives consensus for one chain.
type Engine struct {
	sched *sim.Scheduler
	net   *netem.Network
	cfg   Config

	app    abci.Application
	pool   *mempool.Pool
	stor   *store.Store
	valset *types.ValidatorSet
	nodes  []*node
	// ordinals maps validator addresses to their valset index, backing
	// the ordinal-indexed round tallies.
	ordinals map[valkey.Address]int

	// votes is the chain's shared vote-verification engine: castVote
	// signs through it, so honest votes are admitted as they are signed.
	votes *votesig.Cache

	// votePool recycles gossiped vote allocations. A cast vote stays
	// live for its height only (every receiver drops mismatched-height
	// votes before any other use), so startHeight retires the previous
	// height's votes back to the free list; the generation stamp turns a
	// late delivery of a retired vote into the same silent drop the
	// height check used to produce.
	votePool []*pooledVote
	liveVote []*pooledVote

	// primary is the full node serving RPC; its commit defines block
	// availability to clients.
	primary int

	lastBlockID      types.BlockID
	lastCommit       *types.Commit
	lastAppHash      types.Hash
	lastProposalTime time.Duration
	committedHeight  int64

	emptyBlocks uint64
	totalRounds uint64

	// tr + interned IDs for block/exec spans (nil tracer = disabled).
	tr        *obs.Tracer
	obsTrack  obs.TrackID
	nameBlock obs.NameID
	nameExec  obs.NameID

	onCommit []func(*store.CommittedBlock)

	started bool
	halted  bool
}

// New assembles an engine. The mempool and store are owned by the caller
// so that the RPC layer can share them.
func New(sched *sim.Scheduler, net *netem.Network, cfg Config, app abci.Application, pool *mempool.Pool, stor *store.Store) *Engine {
	if cfg.Validators <= 0 {
		cfg.Validators = simconf.DefaultValidators
	}
	e := &Engine{
		sched: sched,
		net:   net,
		cfg:   cfg,
		app:   app,
		pool:  pool,
		stor:  stor,
		votes: votesig.New(cfg.ChainID),
	}
	if cfg.Obs != nil {
		e.tr = cfg.Obs.Tracer
		e.obsTrack = e.tr.Track("chain/" + cfg.ChainID)
		e.nameBlock = e.tr.Name("block")
		e.nameExec = e.tr.Name("exec")
	}
	vals := make([]*types.Validator, cfg.Validators)
	for i := 0; i < cfg.Validators; i++ {
		key := valkey.Derive(cfg.ChainID, i)
		vals[i] = &types.Validator{
			Address:     key.Pub().Address(),
			PubKey:      key.Pub(),
			VotingPower: 10,
		}
		e.nodes = append(e.nodes, &node{
			index:        i,
			host:         netem.Host(fmt.Sprintf("%s/val%d", cfg.ChainID, i)),
			key:          key,
			addr:         key.Pub().Address(),
			proposals:    make(map[int32]*types.Block),
			prevotes:     make(map[int32]*roundTally),
			precommits:   make(map[int32]*roundTally),
			prevoted:     make(map[int32]bool),
			precommitted: make(map[int32]bool),
		})
	}
	e.valset = types.NewValidatorSet(vals)
	e.ordinals = make(map[valkey.Address]int, len(vals))
	for i, val := range vals {
		e.ordinals[val.Address] = i
	}
	return e
}

// ValidatorSet exposes the chain's validator set (for light clients).
func (e *Engine) ValidatorSet() *types.ValidatorSet { return e.valset }

// VoteCache exposes the chain's shared vote-verification engine. Light
// clients tracking this chain pass it to VerifyCommitCached so commit
// signatures admitted through the live vote path are not re-verified.
func (e *Engine) VoteCache() *votesig.Cache { return e.votes }

// PrimaryHost is the network host of the RPC-serving full node.
func (e *Engine) PrimaryHost() netem.Host { return e.nodes[e.primary].host }

// Hosts lists every validator node's network host, in index order (the
// geo region model places all of a chain's machines in its region).
func (e *Engine) Hosts() []netem.Host {
	out := make([]netem.Host, len(e.nodes))
	for i, n := range e.nodes {
		out[i] = n.host
	}
	return out
}

// Store exposes the canonical block store.
func (e *Engine) Store() *store.Store { return e.stor }

// EmptyBlocks reports how many committed blocks carried no transactions.
func (e *Engine) EmptyBlocks() uint64 { return e.emptyBlocks }

// TotalRounds reports consensus rounds run, including failed ones.
func (e *Engine) TotalRounds() uint64 { return e.totalRounds }

// OnCommit registers a callback fired when a block becomes available at
// the primary full node (after app execution).
func (e *Engine) OnCommit(fn func(*store.CommittedBlock)) {
	e.onCommit = append(e.onCommit, fn)
}

// SetValidatorDown injects a validator crash (or recovery). The engine
// tolerates < 1/3 of voting power down.
func (e *Engine) SetValidatorDown(index int, down bool) {
	if index >= 0 && index < len(e.nodes) {
		e.nodes[index].down = down
	}
}

// Halt stops proposing new blocks after the current height completes.
func (e *Engine) Halt() { e.halted = true }

// Start schedules the first proposal. Call once.
func (e *Engine) Start() {
	if e.started {
		return
	}
	e.started = true
	e.lastAppHash = e.app.Commit() // genesis app hash
	e.sched.After(0, func() { e.startHeight(1) })
}

func (e *Engine) startHeight(h int64) {
	if e.halted {
		return
	}
	e.votes.PruneBelow(h - voteCacheKeepHeights)
	// Retire the previous height's gossiped votes: nothing references
	// them past this point (tallies are reset below, commit signatures
	// were value-copied at commit time), and the generation bump turns
	// any still-in-flight delivery into the drop the height check in
	// onVote would have produced anyway.
	for _, pv := range e.liveVote {
		pv.gen++
		e.votePool = append(e.votePool, pv)
	}
	e.liveVote = e.liveVote[:0]
	for _, n := range e.nodes {
		n.height = h
		n.round = 0
		n.step = stepPropose
		n.proposals = make(map[int32]*types.Block)
		n.prevotes = make(map[int32]*roundTally)
		n.precommits = make(map[int32]*roundTally)
		n.prevoted = make(map[int32]bool)
		n.precommitted = make(map[int32]bool)
	}
	e.startRound(h, 0)
}

func (e *Engine) startRound(h int64, r int32) {
	e.totalRounds++
	proposer := e.valset.Proposer(h, r)
	for _, n := range e.nodes {
		if n.height != h {
			return // height already advanced
		}
		n.round = r
		n.step = stepPropose
	}
	for _, n := range e.nodes {
		n := n
		if n.down {
			continue
		}
		if n.addr == proposer.Address {
			e.propose(n, h, r)
		}
		// Schedule the proposal timeout: prevote nil if nothing arrived.
		e.sched.After(e.cfg.TimeoutPropose, func() {
			if n.height == h && n.round == r && !n.prevoted[r] && !n.down {
				e.castVote(n, types.PrevoteType, h, r, types.BlockID{})
			}
		})
		// Round-failure fallbacks keep the protocol live when votes split
		// (e.g. a proposal reached only part of the network): precommit
		// nil late, and ultimately skip to the next round.
		e.sched.After(e.cfg.TimeoutPropose+2*e.cfg.TimeoutRoundStep, func() {
			if n.height == h && n.round == r && n.step != stepCommitted && !n.precommitted[r] && !n.down {
				e.castVote(n, types.PrecommitType, h, r, types.BlockID{})
			}
		})
		e.sched.After(e.cfg.TimeoutPropose+4*e.cfg.TimeoutRoundStep, func() {
			if n.height == h && n.round == r && n.step != stepCommitted && !n.down {
				e.advanceRound(h, r+1)
			}
		})
	}
}

// propose reaps the mempool, assembles the block and gossips it.
func (e *Engine) propose(n *node, h int64, r int32) {
	e.lastProposalTime = e.sched.Now()
	txs := e.pool.Reap(e.cfg.MaxBlockBytes, e.cfg.MaxBlockGas)
	header := types.Header{
		Version:            1,
		ChainID:            e.cfg.ChainID,
		Height:             h,
		Time:               e.sched.Now(),
		LastBlockID:        e.lastBlockID,
		LastCommitHash:     e.lastCommit.Hash(),
		DataHash:           types.DataHash(txs),
		ValidatorsHash:     e.valset.Hash(),
		NextValidatorsHash: e.valset.Hash(),
		AppHash:            e.lastAppHash,
		ProposerAddress:    n.addr,
	}
	block := &types.Block{Header: header, Data: txs, LastCommit: e.lastCommit}

	// Gossip the proposal: per-link latency plus size/bandwidth.
	var extra time.Duration
	if e.cfg.ProposalBytesPerSecond > 0 {
		extra = time.Duration(int64(block.TotalSize()) * int64(time.Second) / e.cfg.ProposalBytesPerSecond)
	}
	msg := &proposalMsg{height: h, round: r, block: block}
	for _, dst := range e.nodes {
		dst := dst
		e.net.Send(n.host, dst.host, func() {
			if extra == 0 {
				e.onProposal(dst, msg)
				return
			}
			e.sched.After(extra, func() { e.onProposal(dst, msg) })
		})
	}
}

func (e *Engine) onProposal(n *node, msg *proposalMsg) {
	if n.down || n.height != msg.height || n.round != msg.round {
		return
	}
	if n.proposals[msg.round] != nil {
		return
	}
	// Validate the header chains onto our view.
	h := msg.block.Header
	if h.ChainID != e.cfg.ChainID || h.Height != msg.height || h.LastBlockID != e.lastBlockID {
		return
	}
	n.proposals[msg.round] = msg.block
	if !n.prevoted[msg.round] {
		e.castVote(n, types.PrevoteType, msg.height, msg.round, types.BlockID{Hash: h.Hash()})
	}
	// If a quorum of precommits arrived before the proposal, commit now.
	e.maybeCommit(n, msg.round)
}

// castVote signs and gossips a vote.
func (e *Engine) castVote(n *node, vt types.SignedMsgType, h int64, r int32, blockID types.BlockID) {
	switch vt {
	case types.PrevoteType:
		if n.prevoted[r] {
			return
		}
		n.prevoted[r] = true
		n.step = stepPrevote
	case types.PrecommitType:
		if n.precommitted[r] {
			return
		}
		n.precommitted[r] = true
		n.step = stepPrecommit
	}
	var pv *pooledVote
	if k := len(e.votePool); k > 0 {
		pv = e.votePool[k-1]
		e.votePool[k-1] = nil
		e.votePool = e.votePool[:k-1]
	} else {
		pv = &pooledVote{}
	}
	e.liveVote = append(e.liveVote, pv)
	pv.v = types.Vote{
		Type:             vt,
		Height:           h,
		Round:            r,
		BlockID:          blockID,
		Timestamp:        e.sched.Now(),
		ValidatorAddress: n.addr,
	}
	e.votes.Sign(n.key, &pv.v)
	gen := pv.gen
	for _, dst := range e.nodes {
		dst := dst
		e.net.Send(n.host, dst.host, func() {
			if pv.gen != gen {
				return // vote retired: its height already committed
			}
			e.onVote(dst, &pv.v)
		})
	}
}

func (e *Engine) onVote(n *node, v *types.Vote) {
	if n.down || n.height != v.Height {
		return
	}
	// Resolve the claimed validator in the canonical set, then verify the
	// signature through the shared engine. castVote admitted every honest
	// vote when it signed it with the key this set binds to the address,
	// so each delivery is a cache hit and no receiver runs ed25519.
	// Forged, tampered, stranger and re-pointed votes are still rejected:
	// a hit requires a byte-identical signature over the same tuple, and
	// anything else takes the full check.
	val := e.valset.ByAddress(v.ValidatorAddress)
	if val == nil {
		return
	}
	if e.cfg.referenceVoteVerify {
		if !e.votes.VerifyDirect(e.cfg.ChainID, v, val.PubKey) {
			return
		}
	} else if !e.votes.VerifyVote(e.cfg.ChainID, v, val.PubKey) {
		return
	}
	ord := e.ordinals[v.ValidatorAddress]
	switch v.Type {
	case types.PrevoteType:
		rt := n.tally(n.prevotes, v.Round, len(e.nodes))
		if rt.votes[ord] != nil {
			return
		}
		rt.votes[ord] = v
		rt.add(v.BlockID, val.VotingPower)
		e.onPrevoteQuorum(n, v.Round)
	case types.PrecommitType:
		rt := n.tally(n.precommits, v.Round, len(e.nodes))
		if rt.votes[ord] != nil {
			return
		}
		rt.votes[ord] = v
		rt.add(v.BlockID, val.VotingPower)
		e.onPrecommitQuorum(n, v.Round)
	}
}

// quorumFor returns the block ID holding a 2/3+ power majority, if any.
// The counted tally answers in O(distinct block IDs); reference mode
// rebuilds the old per-check power map — at most one ID can exceed 2/3
// of total power, so the map's iteration order never affected which ID
// wins and both paths are byte-identical.
func (e *Engine) quorumFor(rt *roundTally) (types.BlockID, bool) {
	if e.cfg.referenceQuorumTally {
		power := make(map[types.BlockID]int64)
		for _, v := range rt.votes {
			if v == nil {
				continue
			}
			if val := e.valset.ByAddress(v.ValidatorAddress); val != nil {
				power[v.BlockID] += val.VotingPower
			}
		}
		for id, p := range power {
			if p*3 > e.valset.TotalPower()*2 {
				return id, true
			}
		}
		return types.BlockID{}, false
	}
	for i := range rt.blocks {
		if rt.blocks[i].power*3 > e.valset.TotalPower()*2 {
			return rt.blocks[i].id, true
		}
	}
	return types.BlockID{}, false
}

// totalVotePower sums power across all votes in a round.
func (e *Engine) totalVotePower(rt *roundTally) int64 {
	if e.cfg.referenceQuorumTally {
		var p int64
		for _, v := range rt.votes {
			if v == nil {
				continue
			}
			if val := e.valset.ByAddress(v.ValidatorAddress); val != nil {
				p += val.VotingPower
			}
		}
		return p
	}
	return rt.totalPower
}

func (e *Engine) onPrevoteQuorum(n *node, r int32) {
	if n.round != r || n.precommitted[r] {
		return
	}
	rt := n.tally(n.prevotes, r, len(e.nodes))
	if id, ok := e.quorumFor(rt); ok {
		// Precommit the majority block if we have it, nil otherwise.
		if prop := n.proposals[r]; !id.IsZero() && prop != nil && prop.Header.Hash() == id.Hash {
			e.castVote(n, types.PrecommitType, n.height, r, id)
		} else {
			e.castVote(n, types.PrecommitType, n.height, r, types.BlockID{})
		}
		return
	}
	// All power voted without a majority: precommit nil after a step
	// timeout to let stragglers arrive.
	if e.totalVotePower(rt) == e.valset.TotalPower() {
		h := n.height
		e.sched.After(e.cfg.TimeoutRoundStep, func() {
			if n.height == h && n.round == r && !n.precommitted[r] && !n.down {
				e.castVote(n, types.PrecommitType, h, r, types.BlockID{})
			}
		})
	}
}

func (e *Engine) onPrecommitQuorum(n *node, r int32) {
	if n.height == 0 || n.step == stepCommitted {
		return
	}
	rt := n.tally(n.precommits, r, len(e.nodes))
	id, ok := e.quorumFor(rt)
	if !ok {
		return
	}
	if id.IsZero() {
		// Round failed; advance.
		if n.round == r {
			h := n.height
			next := r + 1
			e.sched.After(e.cfg.TimeoutRoundStep/4, func() {
				if n.height == h && n.round == r && n.step != stepCommitted {
					e.advanceRound(h, next)
				}
			})
		}
		return
	}
	e.maybeCommit(n, r)
}

// advanceRound moves every live node to the next round exactly once.
func (e *Engine) advanceRound(h int64, next int32) {
	for _, n := range e.nodes {
		if n.height != h || n.round >= next || n.step == stepCommitted {
			return
		}
	}
	e.startRound(h, next)
}

// maybeCommit commits at node n if it has the proposal and a precommit
// quorum for it.
func (e *Engine) maybeCommit(n *node, r int32) {
	prop := n.proposals[r]
	if n.step == stepCommitted || prop == nil {
		return
	}
	rt := n.tally(n.precommits, r, len(e.nodes))
	id, ok := e.quorumFor(rt)
	if !ok || id.IsZero() || prop.Header.Hash() != id.Hash {
		return
	}
	n.step = stepCommitted
	if n.index == e.primary {
		e.commitCanonical(prop, n, r, id)
	}
}

// commitCanonical executes the block against the application and, after
// the gas-proportional execution time, appends it to the store and fires
// commit callbacks. It then schedules the next height.
func (e *Engine) commitCanonical(block *types.Block, n *node, r int32, id types.BlockID) {
	if block.Header.Height <= e.committedHeight {
		return
	}
	e.committedHeight = block.Header.Height

	// Assemble the canonical commit from the precommits this node saw.
	// Vote signatures are value-copied slice headers: Sign allocates a
	// fresh slice per vote, so retiring the pooled vote wrappers at the
	// next height never touches a commit's bytes.
	rt := n.tally(n.precommits, r, len(e.nodes))
	commit := &types.Commit{Height: block.Header.Height, Round: r, BlockID: id}
	for i, val := range e.valset.Validators {
		sig := types.CommitSig{Flag: types.BlockIDFlagAbsent, ValidatorAddress: val.Address}
		if v := rt.votes[i]; v != nil {
			if v.BlockID == id {
				sig.Flag = types.BlockIDFlagCommit
			} else {
				sig.Flag = types.BlockIDFlagNil
			}
			sig.Timestamp = v.Timestamp
			sig.Signature = v.Signature
		}
		commit.Signatures = append(commit.Signatures, sig)
	}

	// Execute against the canonical application.
	e.app.BeginBlock(block.Header.Height, e.sched.Now())
	results := make([]abci.TxResult, len(block.Data))
	var gasUsed uint64
	for i, tx := range block.Data {
		results[i] = e.app.DeliverTx(tx)
		gasUsed += results[i].GasUsed
	}
	e.app.EndBlock(block.Header.Height)
	appHash := e.app.Commit()

	execTime := time.Duration(int64(gasUsed) * e.cfg.ExecNanosPerGas)
	e.lastBlockID = id
	e.lastCommit = commit
	e.lastAppHash = appHash
	if len(block.Data) == 0 {
		e.emptyBlocks++
	}

	cb := &store.CommittedBlock{Block: block, Commit: commit, Results: results}
	e.sched.After(execTime, func() {
		if err := e.stor.Append(cb); err != nil {
			// Heights are engine-controlled; a gap is a programming error.
			panic(err)
		}
		e.pool.Update(block.Data)
		if e.tr != nil {
			// One "block" span per height (proposal time -> availability)
			// nesting an "exec" child for the gas-proportional execution.
			now := e.sched.Now()
			e.tr.CompleteArg(e.obsTrack, e.nameBlock, block.Header.Time, now, uint64(block.Header.Height))
			e.tr.CompleteArg(e.obsTrack, e.nameExec, now-execTime, now, gasUsed)
		}
		for _, fn := range e.onCommit {
			fn(cb)
		}
		// Next proposal honours both execution time and the interval floor.
		next := e.lastProposalTime + e.cfg.MinBlockInterval
		now := e.sched.Now()
		if next < now {
			next = now
		}
		h := block.Header.Height + 1
		e.sched.At(next, func() { e.startHeight(h) })
	})
}
