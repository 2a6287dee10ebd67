package consensus

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"ibcbench/internal/abci"
	"ibcbench/internal/netem"
	"ibcbench/internal/sim"
	"ibcbench/internal/tendermint/mempool"
	"ibcbench/internal/tendermint/store"
	"ibcbench/internal/tendermint/types"
	"ibcbench/internal/tendermint/votesig"
	"ibcbench/internal/valkey"
)

// stubTx is a fixed-size transaction for consensus tests.
type stubTx struct {
	id  string
	gas uint64
}

func (t stubTx) Hash() types.Hash  { return sha256.Sum256([]byte(t.id)) }
func (t stubTx) Size() int         { return 100 }
func (t stubTx) GasWanted() uint64 { return t.gas }

// stubApp counts executions and burns the declared gas.
type stubApp struct {
	delivered int
	commits   int
	began     []int64
}

func (a *stubApp) CheckTx(types.Tx) error              { return nil }
func (a *stubApp) BeginBlock(h int64, _ time.Duration) { a.began = append(a.began, h) }
func (a *stubApp) EndBlock(int64)                      {}
func (a *stubApp) DeliverTx(tx types.Tx) abci.TxResult {
	a.delivered++
	return abci.TxResult{GasUsed: tx.GasWanted()}
}
func (a *stubApp) Commit() types.Hash {
	a.commits++
	return sha256.Sum256([]byte(fmt.Sprintf("state-%d", a.commits)))
}

type harness struct {
	sched *sim.Scheduler
	net   *netem.Network
	app   *stubApp
	pool  *mempool.Pool
	store *store.Store
	eng   *Engine
}

func newHarness(tb testing.TB, mutate func(*Config)) *harness {
	tb.Helper()
	sched := sim.NewScheduler()
	net := netem.New(sched, sim.NewRNG(1), netem.DefaultWAN())
	cfg := DefaultConfig("chain-a")
	if mutate != nil {
		mutate(&cfg)
	}
	app := &stubApp{}
	pool := mempool.New(mempool.DefaultConfig(), app.CheckTx)
	stor := store.New(cfg.ChainID)
	eng := New(sched, net, cfg, app, pool, stor)
	return &harness{sched: sched, net: net, app: app, pool: pool, store: stor, eng: eng}
}

func TestChainProducesBlocks(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.Start()
	if err := h.sched.RunUntil(60 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	// With a 5s floor, ~60s should yield around 11-12 blocks.
	got := h.store.Height()
	if got < 10 || got > 13 {
		t.Fatalf("height after 60s = %d, want ~11", got)
	}
	if h.eng.EmptyBlocks() != uint64(got) {
		t.Fatalf("all blocks should be empty, got %d of %d", h.eng.EmptyBlocks(), got)
	}
}

func TestBlockIntervalFloor(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.Start()
	if err := h.sched.RunUntil(120 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	var prev time.Duration
	for height := int64(1); height <= h.store.Height(); height++ {
		cb, err := h.store.Block(height)
		if err != nil {
			t.Fatal(err)
		}
		bt := cb.Block.Header.Time
		if height > 1 {
			if iv := bt - prev; iv < 5*time.Second {
				t.Fatalf("interval before height %d = %v, below 5s floor", height, iv)
			}
		}
		prev = bt
	}
}

func TestTransactionsCommitted(t *testing.T) {
	h := newHarness(t, nil)
	for i := 0; i < 50; i++ {
		if err := h.pool.Add(stubTx{id: fmt.Sprintf("tx%d", i), gas: 1000}); err != nil {
			t.Fatal(err)
		}
	}
	h.eng.Start()
	if err := h.sched.RunUntil(30 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if h.app.delivered != 50 {
		t.Fatalf("delivered %d txs, want 50", h.app.delivered)
	}
	if h.pool.Size() != 0 {
		t.Fatalf("mempool still holds %d txs", h.pool.Size())
	}
	cb, err := h.store.Block(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(cb.Block.Data) != 50 {
		t.Fatalf("block 1 carries %d txs", len(cb.Block.Data))
	}
}

func TestCommitVerifiableByLightClient(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.Start()
	if err := h.sched.RunUntil(30 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	for height := int64(1); height <= h.store.Height(); height++ {
		cb, err := h.store.Block(height)
		if err != nil {
			t.Fatal(err)
		}
		blockID := types.BlockID{Hash: cb.Block.Header.Hash()}
		if err := h.eng.ValidatorSet().VerifyCommit("chain-a", blockID, height, cb.Commit); err != nil {
			t.Fatalf("commit for height %d fails light-client verification: %v", height, err)
		}
	}
}

func TestHeadersChainTogether(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.Start()
	if err := h.sched.RunUntil(40 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	for height := int64(2); height <= h.store.Height(); height++ {
		cur, _ := h.store.Block(height)
		prev, _ := h.store.Block(height - 1)
		if cur.Block.Header.LastBlockID.Hash != prev.Block.Header.Hash() {
			t.Fatalf("height %d does not chain onto %d", height, height-1)
		}
		if cur.Block.LastCommit.Height != height-1 {
			t.Fatalf("height %d carries commit for %d", height, cur.Block.LastCommit.Height)
		}
	}
}

func TestToleratesMinorityValidatorFailure(t *testing.T) {
	h := newHarness(t, nil)
	// Take down a non-primary validator (node 0 is the RPC full node
	// whose commit defines block availability).
	h.eng.SetValidatorDown(4, true) // 1 of 5 down: < 1/3 power
	h.eng.Start()
	if err := h.sched.RunUntil(90 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if h.store.Height() < 8 {
		t.Fatalf("height = %d with one validator down, chain stalled", h.store.Height())
	}
	// Rounds where the down validator proposes must have failed over.
	if h.eng.TotalRounds() <= uint64(h.store.Height()) {
		t.Fatalf("rounds = %d, expected failed rounds beyond %d heights",
			h.eng.TotalRounds(), h.store.Height())
	}
}

func TestHaltsWithMajorityFailure(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.SetValidatorDown(3, true)
	h.eng.SetValidatorDown(4, true) // 2 of 5 down: 40% > 1/3
	h.eng.Start()
	if err := h.sched.RunUntil(120 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if h.store.Height() != 0 {
		t.Fatalf("chain committed %d blocks with >1/3 power down", h.store.Height())
	}
}

func TestRecoveryAfterValidatorRestart(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.SetValidatorDown(3, true)
	h.eng.SetValidatorDown(4, true)
	h.eng.Start()
	if err := h.sched.RunUntil(60 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if h.store.Height() != 0 {
		t.Fatal("committed during outage")
	}
	h.eng.SetValidatorDown(4, false)
	if err := h.sched.RunUntil(180 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if h.store.Height() == 0 {
		t.Fatal("chain did not recover after validator restart")
	}
}

func TestExecutionTimeStretchesInterval(t *testing.T) {
	h := newHarness(t, nil)
	// One enormous block: gas chosen so execution takes ~20s
	// (20s / 24ns per gas ≈ 8.3e8 gas).
	if err := h.pool.Add(stubTx{id: "huge", gas: 850_000_000}); err != nil {
		t.Fatal(err)
	}
	h.eng.Start()
	if err := h.sched.RunUntil(60 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	b1, err := h.store.Block(1)
	if err != nil {
		t.Fatal("block 1 missing")
	}
	b2, err := h.store.Block(2)
	if err != nil {
		t.Fatal("block 2 missing")
	}
	iv := b2.Block.Header.Time - b1.Block.Header.Time
	if iv < 15*time.Second {
		t.Fatalf("interval after heavy block = %v, execution time not reflected", iv)
	}
}

func TestOnCommitCallback(t *testing.T) {
	h := newHarness(t, nil)
	var heights []int64
	h.eng.OnCommit(func(cb *store.CommittedBlock) {
		heights = append(heights, cb.Block.Header.Height)
	})
	h.eng.Start()
	if err := h.sched.RunUntil(30 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(heights) != int(h.store.Height()) {
		t.Fatalf("callbacks = %d, height = %d", len(heights), h.store.Height())
	}
	for i, got := range heights {
		if got != int64(i+1) {
			t.Fatalf("callback heights out of order: %v", heights)
		}
	}
}

func TestHalt(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.Start()
	if err := h.sched.RunUntil(12 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	h.eng.Halt()
	before := h.store.Height()
	if err := h.sched.RunUntil(60 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	// At most one in-flight height may complete after Halt.
	if h.store.Height() > before+1 {
		t.Fatalf("height advanced from %d to %d after halt", before, h.store.Height())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (int64, types.Hash) {
		sched := sim.NewScheduler()
		net := netem.New(sched, sim.NewRNG(7), netem.DefaultWAN())
		app := &stubApp{}
		pool := mempool.New(mempool.DefaultConfig(), nil)
		stor := store.New("chain-a")
		eng := New(sched, net, DefaultConfig("chain-a"), app, pool, stor)
		for i := 0; i < 10; i++ {
			if err := pool.Add(stubTx{id: fmt.Sprintf("t%d", i), gas: 500}); err != nil {
				panic(err)
			}
		}
		eng.Start()
		if err := sched.RunUntil(42 * time.Second); err != nil {
			panic(err)
		}
		cb, err := stor.Block(stor.Height())
		if err != nil {
			panic(err)
		}
		return stor.Height(), cb.Block.Header.Hash()
	}
	h1, hash1 := run()
	h2, hash2 := run()
	if h1 != h2 || hash1 != hash2 {
		t.Fatal("identical seeds produced different chains")
	}
}

// --- shared vote-verification engine -----------------------------------------

// TestVoteVerificationPinnedLinear pins the shared engine's signature
// work: every honest vote is admitted when it is signed, so no delivery
// runs a full ed25519 check and every delivery hits the cache.
func TestVoteVerificationPinnedLinear(t *testing.T) {
	const vals = 7
	h := newHarness(t, func(c *Config) { c.Validators = vals })
	h.eng.Start()
	if err := h.sched.RunUntil(60 * time.Second); err != nil {
		t.Fatalf("run: %v", err)
	}
	if h.store.Height() < 10 {
		t.Fatalf("height = %d, chain stalled", h.store.Height())
	}
	st := h.eng.VoteCache().Stats()
	rounds := h.eng.TotalRounds()
	// At most one prevote + one precommit per validator per round.
	if max := 2 * uint64(vals) * rounds; st.Signed == 0 || st.Signed > max {
		t.Fatalf("%d votes signed over %d rounds, want 1..%d", st.Signed, rounds, max)
	}
	if st.Verifications != 0 {
		t.Fatalf("%d full verifications of honest votes, want 0", st.Verifications)
	}
	if st.Hits == 0 {
		t.Fatal("no delivery hit the cache")
	}
	if st.Rejected != 0 {
		t.Fatalf("%d honest votes rejected", st.Rejected)
	}
}

// TestReferencePathCountsQuadraticFanout runs the same seed through the
// shared engine and the per-receiver reference path: the chains must be
// byte-identical while the shared engine performs no signature checks
// and the reference path checks every delivery of every vote.
func TestReferencePathCountsQuadraticFanout(t *testing.T) {
	const vals = 7
	run := func(reference bool) (votesig.Stats, []types.Hash) {
		h := newHarness(t, func(c *Config) {
			c.Validators = vals
			c.referenceVoteVerify = reference
		})
		h.eng.Start()
		if err := h.sched.RunUntil(60 * time.Second); err != nil {
			t.Fatalf("run: %v", err)
		}
		var hashes []types.Hash
		for height := int64(1); height <= h.store.Height(); height++ {
			cb, err := h.store.Block(height)
			if err != nil {
				t.Fatal(err)
			}
			hashes = append(hashes, cb.Block.Header.Hash())
		}
		return h.eng.VoteCache().Stats(), hashes
	}
	shared, sharedChain := run(false)
	ref, refChain := run(true)
	if len(sharedChain) == 0 || len(sharedChain) != len(refChain) {
		t.Fatalf("chain lengths diverge: shared=%d reference=%d", len(sharedChain), len(refChain))
	}
	for i := range sharedChain {
		if sharedChain[i] != refChain[i] {
			t.Fatalf("block %d differs between shared and reference verification", i+1)
		}
	}
	// Every vote is delivered to all V nodes; the reference path verifies
	// per delivery, the shared path admitted each vote when it was signed.
	if shared.Verifications != 0 {
		t.Fatalf("shared path ran %d full checks, want 0", shared.Verifications)
	}
	if want := vals * ref.Signed; ref.Signed == 0 || ref.Verifications < want {
		t.Fatalf("reference path: %d checks for %d votes, want >= %d", ref.Verifications, ref.Signed, want)
	}
}

// TestCacheRejectsInjectedVotes injects forged, stranger and duplicate
// votes directly into the gossip handler with the cache enabled.
func TestCacheRejectsInjectedVotes(t *testing.T) {
	h := newHarness(t, nil)
	// Place every node at height 1, round 0 without running the network.
	h.eng.startHeight(1)
	receiver := h.eng.nodes[1]

	// Forged: claims validator 0's address, signed by a different key.
	forged := &types.Vote{
		Type:             types.PrevoteType,
		Height:           1,
		Round:            0,
		BlockID:          types.BlockID{Hash: types.Hash{9}},
		ValidatorAddress: h.eng.nodes[0].addr,
	}
	forged.Signature = valkey.Derive("attacker", 0).Sign(types.VoteSignBytes("chain-a", forged))
	h.eng.onVote(receiver, forged)
	if receiver.prevotes[0].count() != 0 {
		t.Fatal("forged vote recorded")
	}

	// Stranger: a well-signed vote from a key outside the validator set.
	stranger := valkey.Derive("chain-a", 99)
	alien := &types.Vote{
		Type:             types.PrevoteType,
		Height:           1,
		Round:            0,
		ValidatorAddress: stranger.Pub().Address(),
	}
	alien.Signature = stranger.Sign(types.VoteSignBytes("chain-a", alien))
	h.eng.onVote(receiver, alien)
	if receiver.prevotes[0].count() != 0 {
		t.Fatal("stranger vote recorded")
	}

	// Valid vote from validator 2 (keys are derived deterministically).
	val2 := valkey.Derive("chain-a", 2)
	good := &types.Vote{
		Type:             types.PrevoteType,
		Height:           1,
		Round:            0,
		BlockID:          types.BlockID{Hash: types.Hash{9}},
		ValidatorAddress: val2.Pub().Address(),
	}
	good.Signature = val2.Sign(types.VoteSignBytes("chain-a", good))
	h.eng.onVote(receiver, good)
	if receiver.prevotes[0].count() != 1 {
		t.Fatal("valid vote not recorded")
	}

	// Duplicate delivery: recorded once, power not double-counted.
	h.eng.onVote(receiver, good)
	if receiver.prevotes[0].count() != 1 {
		t.Fatal("duplicate vote double-recorded")
	}
	if p := h.eng.totalVotePower(receiver.prevotes[0]); p != 10 {
		t.Fatalf("duplicate vote double-counted power: %d", p)
	}

	// Tampered: the cached tuple must not vouch for a flipped signature.
	tampered := *good
	tampered.Signature = append([]byte(nil), good.Signature...)
	tampered.Signature[0] ^= 0xff
	other := h.eng.nodes[3]
	h.eng.onVote(other, &tampered)
	if other.prevotes[0].count() != 0 {
		t.Fatal("tampered vote accepted via cache")
	}

	// The same valid vote delivered to another node hits the cache.
	before := h.eng.VoteCache().Stats()
	h.eng.onVote(other, good)
	after := h.eng.VoteCache().Stats()
	if other.prevotes[0].count() != 1 {
		t.Fatal("valid vote not recorded at second node")
	}
	if after.Hits != before.Hits+1 || after.Verifications != before.Verifications {
		t.Fatalf("second delivery re-verified (before=%+v after=%+v)", before, after)
	}
}

// TestCacheRejectsCopiesOfSignedVote takes a vote the engine signed and
// admitted itself: a tampered copy and a copy re-pointed to another block
// under the same signature both take the full check and fail, and the
// admitted entry still serves the original.
func TestCacheRejectsCopiesOfSignedVote(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.startHeight(1)
	h.eng.castVote(h.eng.nodes[0], types.PrevoteType, 1, 0, types.BlockID{Hash: types.Hash{7}})
	signed := &h.eng.liveVote[len(h.eng.liveVote)-1].v

	tampered := *signed
	tampered.Signature = append([]byte(nil), signed.Signature...)
	tampered.Signature[0] ^= 0xff
	repointed := *signed
	repointed.BlockID = types.BlockID{Hash: types.Hash{8}}
	receiver := h.eng.nodes[1]
	h.eng.onVote(receiver, &tampered)
	h.eng.onVote(receiver, &repointed)
	if receiver.prevotes[0].count() != 0 {
		t.Fatal("copy of a signed vote accepted")
	}
	st := h.eng.VoteCache().Stats()
	if st.Rejected != 2 || st.Verifications != 2 || st.Size != 1 {
		t.Fatalf("copies not rejected by the full check: %+v", st)
	}

	h.eng.onVote(receiver, signed)
	after := h.eng.VoteCache().Stats()
	if receiver.prevotes[0].count() != 1 {
		t.Fatal("signed vote not recorded after rejected copies")
	}
	if after.Hits != st.Hits+1 || after.Verifications != st.Verifications {
		t.Fatalf("admitted entry lost after rejected copies (before=%+v after=%+v)", st, after)
	}
}

// TestFreshCommitVerifiesFromCache runs the light-client fast path on
// the latest commit: its signatures are precommits admitted when they
// were signed, so neither the owning cache nor a ReadOnly view runs a
// full check.
func TestFreshCommitVerifiesFromCache(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.Start()
	if err := h.sched.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	height := h.store.Height()
	cb, err := h.store.Block(height)
	if err != nil {
		t.Fatal(err)
	}
	blockID := types.BlockID{Hash: cb.Block.Header.Hash()}
	cache := h.eng.VoteCache()
	before := cache.Stats()
	for _, vv := range []types.VoteVerifier{cache, cache.ReadOnly()} {
		if err := h.eng.ValidatorSet().VerifyCommitCached("chain-a", blockID, height, cb.Commit, vv); err != nil {
			t.Fatalf("commit at height %d: %v", height, err)
		}
	}
	after := cache.Stats()
	if after.Verifications != 0 || after.ReadOnlyVerifications != 0 {
		t.Fatalf("fresh commit ran full checks: %+v", after)
	}
	if after.Hits <= before.Hits {
		t.Fatalf("commit signatures did not hit the owning cache (before=%+v after=%+v)", before, after)
	}
}

// --- counted quorum tallies ---------------------------------------------------

// TestQuorumTallyReferenceEquivalence runs the same seed through the
// counted per-round tallies and the reference map-walk recomputation:
// the chains must be byte-identical (at most one block ID can exceed
// 2/3 of total power, so map iteration order never picked the winner).
func TestQuorumTallyReferenceEquivalence(t *testing.T) {
	run := func(reference bool) []types.Hash {
		h := newHarness(t, func(c *Config) {
			c.Validators = 7
			c.referenceQuorumTally = reference
		})
		for i := 0; i < 20; i++ {
			if err := h.pool.Add(stubTx{id: fmt.Sprintf("q%d", i), gas: 400}); err != nil {
				t.Fatal(err)
			}
		}
		h.eng.Start()
		if err := h.sched.RunUntil(60 * time.Second); err != nil {
			t.Fatal(err)
		}
		if h.store.Height() < 10 {
			t.Fatalf("height = %d, chain stalled", h.store.Height())
		}
		var hashes []types.Hash
		for height := int64(1); height <= h.store.Height(); height++ {
			cb, err := h.store.Block(height)
			if err != nil {
				t.Fatal(err)
			}
			hashes = append(hashes, cb.Block.Header.Hash())
		}
		return hashes
	}
	counted := run(false)
	reference := run(true)
	if len(counted) != len(reference) {
		t.Fatalf("chain lengths diverge: counted=%d reference=%d", len(counted), len(reference))
	}
	for i := range counted {
		if counted[i] != reference[i] {
			t.Fatalf("block %d differs between counted and reference tallies", i+1)
		}
	}
}

// TestVotePoolSteadyStateAllocs pins the gossip path's vote recycling:
// once the chain reaches steady state, the population of pooled vote
// wrappers (free list + live) stops growing — later heights reuse
// retired wrappers instead of allocating fresh types.Vote values for
// every cast.
func TestVotePoolSteadyStateAllocs(t *testing.T) {
	h := newHarness(t, nil)
	h.eng.Start()
	if err := h.sched.RunUntil(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	warm := len(h.eng.votePool) + len(h.eng.liveVote)
	warmHeight := h.store.Height()
	if warm == 0 || warmHeight < 3 {
		t.Fatalf("warmup produced %d wrappers over %d heights", warm, warmHeight)
	}
	if err := h.sched.RunUntil(120 * time.Second); err != nil {
		t.Fatal(err)
	}
	if h.store.Height() < warmHeight+10 {
		t.Fatalf("steady window committed too few blocks: %d -> %d", warmHeight, h.store.Height())
	}
	steady := len(h.eng.votePool) + len(h.eng.liveVote)
	if steady != warm {
		t.Fatalf("vote wrapper population grew from %d to %d over %d further heights — pool not recycling",
			warm, steady, h.store.Height()-warmHeight)
	}
	if len(h.eng.votePool) == 0 {
		t.Fatal("free list empty after a committed height: startHeight is not retiring votes")
	}
}

// BenchmarkQuorumTally measures one quorum check on a full round of
// prevotes: the counted tally answers from running power sums in
// O(distinct block IDs); the reference path rebuilds a power map over
// the whole validator set per check.
func BenchmarkQuorumTally(b *testing.B) {
	for _, vals := range []int{4, 16, 64} {
		h := newHarness(b, func(c *Config) { c.Validators = vals })
		rt := &roundTally{votes: make([]*types.Vote, vals)}
		id := types.BlockID{Hash: types.Hash{42}}
		for ord, val := range h.eng.valset.Validators {
			rt.votes[ord] = &types.Vote{
				Type:             types.PrevoteType,
				Height:           1,
				BlockID:          id,
				ValidatorAddress: val.PubKey.Address(),
			}
			rt.add(id, val.VotingPower)
		}
		b.Run(fmt.Sprintf("counted-vals-%d", vals), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := h.eng.quorumFor(rt); !ok {
					b.Fatal("full round has no quorum")
				}
			}
		})
		b.Run(fmt.Sprintf("reference-vals-%d", vals), func(b *testing.B) {
			b.ReportAllocs()
			h.eng.cfg.referenceQuorumTally = true
			defer func() { h.eng.cfg.referenceQuorumTally = false }()
			for i := 0; i < b.N; i++ {
				if _, ok := h.eng.quorumFor(rt); !ok {
					b.Fatal("full round has no quorum")
				}
			}
		})
	}
}

// BenchmarkVoteFanout measures block production as the validator set
// grows. The shared vote-verification engine (internal/tendermint/votesig)
// admits each honest vote when it is signed, so every delivery is a cache
// hit and per-height curve work is the O(V) signing across the two
// voting stages; the `vals-13-reference` variant runs the per-receiver
// path (O(V^2) checks) as the regression anchor. Virtual results are
// identical either way — blocks-per-vmin must not move.
func BenchmarkVoteFanout(b *testing.B) {
	run := func(b *testing.B, vals int, reference bool) {
		for i := 0; i < b.N; i++ {
			h := newHarness(b, func(c *Config) {
				c.Validators = vals
				c.referenceVoteVerify = reference
			})
			h.eng.Start()
			if err := h.sched.RunUntil(60 * time.Second); err != nil {
				b.Fatal(err)
			}
			if h.store.Height() == 0 {
				b.Fatal("no blocks committed")
			}
			b.ReportMetric(float64(h.store.Height()), "blocks-per-vmin")
		}
	}
	for _, vals := range []int{5, 9, 13} {
		b.Run(fmt.Sprintf("vals-%d", vals), func(b *testing.B) { run(b, vals, false) })
	}
	b.Run("vals-13-reference", func(b *testing.B) { run(b, 13, true) })
}
