package votesig_test

import (
	"sync"
	"testing"
	"time"

	"ibcbench/internal/chain"
	"ibcbench/internal/netem"
	"ibcbench/internal/sim"
	"ibcbench/internal/tendermint/types"
	"ibcbench/internal/tendermint/votesig"
	"ibcbench/internal/valkey"
)

const chainID = "cache-chain"

func mkVote(key *valkey.PrivKey, vt types.SignedMsgType, h int64, r int32, id types.BlockID) *types.Vote {
	v := &types.Vote{
		Type:             vt,
		Height:           h,
		Round:            r,
		BlockID:          id,
		Timestamp:        3 * time.Second,
		ValidatorAddress: key.Pub().Address(),
	}
	v.Signature = key.Sign(types.VoteSignBytes(chainID, v))
	return v
}

func TestVerifyOnceThenHit(t *testing.T) {
	c := votesig.New(chainID)
	key := valkey.Derive(chainID, 0)
	v := mkVote(key, types.PrevoteType, 5, 0, types.BlockID{Hash: types.Hash{1}})
	for i := 0; i < 4; i++ {
		if !c.VerifyVote(chainID, v, key.Pub()) {
			t.Fatalf("valid vote rejected on delivery %d", i)
		}
	}
	st := c.Stats()
	if st.Verifications != 1 {
		t.Fatalf("4 deliveries performed %d full verifications, want 1", st.Verifications)
	}
	if st.Hits != 3 {
		t.Fatalf("hits = %d, want 3", st.Hits)
	}
	if st.Size != 1 {
		t.Fatalf("cache size = %d, want 1", st.Size)
	}
}

func TestTamperedSignatureNeverHits(t *testing.T) {
	c := votesig.New(chainID)
	key := valkey.Derive(chainID, 0)
	v := mkVote(key, types.PrevoteType, 5, 0, types.BlockID{Hash: types.Hash{1}})
	if !c.VerifyVote(chainID, v, key.Pub()) {
		t.Fatal("valid vote rejected")
	}
	// Same tuple, flipped signature bit: the cached tuple must not vouch
	// for it — it falls through to a full check and fails.
	bad := *v
	bad.Signature = append([]byte(nil), v.Signature...)
	bad.Signature[0] ^= 0xff
	if c.VerifyVote(chainID, &bad, key.Pub()) {
		t.Fatal("tampered signature accepted via cached tuple")
	}
	st := c.Stats()
	if st.Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", st.Rejected)
	}
	// The failed check must not evict or overwrite the admitted entry.
	if !c.VerifyVote(chainID, v, key.Pub()) {
		t.Fatal("original vote rejected after tamper attempt")
	}
	if st := c.Stats(); st.Hits != 1 {
		t.Fatalf("original vote did not hit after tamper attempt (hits=%d)", st.Hits)
	}
}

func TestForgedVoteRejected(t *testing.T) {
	c := votesig.New(chainID)
	victim := valkey.Derive(chainID, 0)
	attacker := valkey.Derive(chainID, 9)
	// A vote claiming the victim's address but signed by the attacker.
	forged := &types.Vote{
		Type:             types.PrecommitType,
		Height:           2,
		Round:            0,
		BlockID:          types.BlockID{Hash: types.Hash{2}},
		ValidatorAddress: victim.Pub().Address(),
	}
	forged.Signature = attacker.Sign(types.VoteSignBytes(chainID, forged))
	// The caller resolves the pubkey by the claimed address (the
	// victim's), so the forgery fails and is never admitted.
	if c.VerifyVote(chainID, forged, victim.Pub()) {
		t.Fatal("forged vote accepted")
	}
	if st := c.Stats(); st.Size != 0 {
		t.Fatalf("forged vote cached (size=%d)", st.Size)
	}
}

func TestVoteTimestampExcludedFromIdentity(t *testing.T) {
	// A commit signature is the live precommit minus the timestamp (sign
	// bytes never include it), so the commit fast path must hit.
	c := votesig.New(chainID)
	key := valkey.Derive(chainID, 0)
	v := mkVote(key, types.PrecommitType, 7, 1, types.BlockID{Hash: types.Hash{7}})
	if !c.VerifyVote(chainID, v, key.Pub()) {
		t.Fatal("valid vote rejected")
	}
	asCommitSig := *v
	asCommitSig.Timestamp = 0
	if !c.VerifyVote(chainID, &asCommitSig, key.Pub()) {
		t.Fatal("commit-shaped vote rejected")
	}
	if st := c.Stats(); st.Verifications != 1 || st.Hits != 1 {
		t.Fatalf("commit-shaped vote re-verified (verifications=%d hits=%d)", st.Verifications, st.Hits)
	}
}

func TestForeignChainBypassesCache(t *testing.T) {
	c := votesig.New(chainID)
	key := valkey.Derive("other-chain", 0)
	v := &types.Vote{
		Type: types.PrevoteType, Height: 1, Round: 0,
		ValidatorAddress: key.Pub().Address(),
	}
	v.Signature = key.Sign(types.VoteSignBytes("other-chain", v))
	for i := 0; i < 2; i++ {
		if !c.VerifyVote("other-chain", v, key.Pub()) {
			t.Fatal("foreign-chain vote rejected")
		}
	}
	st := c.Stats()
	if st.Verifications != 2 || st.Hits != 0 || st.Size != 0 {
		t.Fatalf("foreign-chain votes touched the cache: %+v", st)
	}
}

func TestVerifyDirectDoesNotPopulate(t *testing.T) {
	c := votesig.New(chainID)
	key := valkey.Derive(chainID, 0)
	v := mkVote(key, types.PrevoteType, 1, 0, types.BlockID{})
	for i := 0; i < 3; i++ {
		if !c.VerifyDirect(chainID, v, key.Pub()) {
			t.Fatal("valid vote rejected on reference path")
		}
	}
	st := c.Stats()
	if st.Verifications != 3 || st.Hits != 0 || st.Size != 0 {
		t.Fatalf("reference path cached or hit: %+v", st)
	}
}

func TestPruneBelow(t *testing.T) {
	c := votesig.New(chainID)
	key := valkey.Derive(chainID, 0)
	for h := int64(1); h <= 10; h++ {
		v := mkVote(key, types.PrevoteType, h, 0, types.BlockID{Hash: types.Hash{byte(h)}})
		if !c.VerifyVote(chainID, v, key.Pub()) {
			t.Fatalf("vote at height %d rejected", h)
		}
	}
	c.PruneBelow(8)
	if st := c.Stats(); st.Size != 3 {
		t.Fatalf("size after pruning below 8 = %d, want 3 (heights 8..10)", st.Size)
	}
	// A pruned vote merely falls back to a full verification.
	v := mkVote(key, types.PrevoteType, 2, 0, types.BlockID{Hash: types.Hash{2}})
	if !c.VerifyVote(chainID, v, key.Pub()) {
		t.Fatal("re-delivered pruned vote rejected")
	}
}

// --- admission at sign time ------------------------------------------------

func TestSignAdmits(t *testing.T) {
	c := votesig.New(chainID)
	key := valkey.Derive(chainID, 0)
	v := &types.Vote{
		Type:             types.PrecommitType,
		Height:           4,
		BlockID:          types.BlockID{Hash: types.Hash{4}},
		ValidatorAddress: key.Pub().Address(),
	}
	c.Sign(key, v)
	if !key.Pub().Verify(types.VoteSignBytes(chainID, v), v.Signature) {
		t.Fatal("Sign produced an invalid signature")
	}
	for i := 0; i < 3; i++ {
		if !c.VerifyVote(chainID, v, key.Pub()) {
			t.Fatalf("signed vote rejected on delivery %d", i)
		}
	}
	st := c.Stats()
	if st.Signed != 1 || st.Verifications != 0 || st.Hits != 3 || st.Size != 1 {
		t.Fatalf("signed vote not admitted: %+v", st)
	}
}

func TestReadOnlyCountsFullChecks(t *testing.T) {
	c := votesig.New(chainID)
	key := valkey.Derive(chainID, 0)
	signed := &types.Vote{Type: types.PrevoteType, Height: 1, ValidatorAddress: key.Pub().Address()}
	c.Sign(key, signed)
	ro := c.ReadOnly()
	if !ro.VerifyVote(chainID, signed, key.Pub()) {
		t.Fatal("admitted vote rejected by read-only view")
	}
	if st := c.Stats(); st.ReadOnlyVerifications != 0 {
		t.Fatalf("read-only hit ran a full check: %+v", st)
	}
	miss := mkVote(key, types.PrevoteType, 2, 0, types.BlockID{})
	if !ro.VerifyVote(chainID, miss, key.Pub()) {
		t.Fatal("valid unadmitted vote rejected by read-only view")
	}
	st := c.Stats()
	if st.ReadOnlyVerifications != 1 || st.Verifications != 0 || st.Size != 1 {
		t.Fatalf("read-only miss not counted or admitted: %+v", st)
	}
}

// TestReadOnlyViewsConcurrentWithSign runs read-only views on several
// goroutines while the owner signs, as partitions do under parallel runs.
func TestReadOnlyViewsConcurrentWithSign(t *testing.T) {
	c := votesig.New(chainID)
	key := valkey.Derive(chainID, 0)
	unadmitted := mkVote(key, types.PrevoteType, 1, 0, types.BlockID{Hash: types.Hash{1}})
	const views, checks, signs = 4, 8, 8
	var wg sync.WaitGroup
	for i := 0; i < views; i++ {
		ro := c.ReadOnly()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < checks; j++ {
				if !ro.VerifyVote(chainID, unadmitted, key.Pub()) {
					t.Error("valid vote rejected by read-only view")
				}
			}
		}()
	}
	for h := int64(2); h < 2+signs; h++ {
		c.Sign(key, &types.Vote{Type: types.PrevoteType, Height: h, ValidatorAddress: key.Pub().Address()})
	}
	wg.Wait()
	if st := c.Stats(); st.ReadOnlyVerifications != views*checks || st.Signed != signs || st.Size != signs {
		t.Fatalf("concurrent views miscounted: %+v", st)
	}
}

// TestAdmittedEntriesVerify audits a live chain's cache: every tuple
// admitted at sign time must carry a signature that passes a full
// ed25519 check under the canonical validator-set key for its address.
func TestAdmittedEntriesVerify(t *testing.T) {
	sched := sim.NewScheduler()
	network := netem.New(sched, sim.NewRNG(1), netem.DefaultWAN())
	c := chain.New(sched, network, chain.Config{ChainID: "audit", Validators: 7})
	c.Start()
	if err := sched.RunUntil(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	cache := c.Engine.VoteCache()
	admitted := cache.Admitted()
	if len(admitted) == 0 {
		t.Fatal("no votes admitted")
	}
	st := cache.Stats()
	if st.Verifications != 0 || st.Rejected != 0 || uint64(len(admitted)) != st.Signed {
		t.Fatalf("honest run: %d admitted, stats %+v", len(admitted), st)
	}
	vs := c.Engine.ValidatorSet()
	for i := range admitted {
		v := &admitted[i]
		val := vs.ByAddress(v.ValidatorAddress)
		if val == nil {
			t.Fatalf("admitted vote from stranger %s", v.ValidatorAddress)
		}
		if !val.PubKey.Verify(types.VoteSignBytes("audit", v), v.Signature) {
			t.Fatalf("admitted %v h=%d r=%d from %s fails ed25519", v.Type, v.Height, v.Round, v.ValidatorAddress)
		}
	}
}

// --- batched VerifyCommit fast path ------------------------------------------

func TestVerifyCommitCachedSkipsAdmittedSignatures(t *testing.T) {
	c := votesig.New(chainID)
	const n = 4
	blockID := types.BlockID{Hash: types.Hash{42}}
	vals := make([]*types.Validator, n)
	commit := &types.Commit{Height: 3, Round: 1, BlockID: blockID}
	for i := 0; i < n; i++ {
		key := valkey.Derive(chainID, i)
		vals[i] = &types.Validator{Address: key.Pub().Address(), PubKey: key.Pub(), VotingPower: 10}
		v := mkVote(key, types.PrecommitType, 3, 1, blockID)
		// The live vote path admits every precommit once.
		if !c.VerifyVote(chainID, v, key.Pub()) {
			t.Fatalf("live precommit %d rejected", i)
		}
		commit.Signatures = append(commit.Signatures, types.CommitSig{
			Flag:             types.BlockIDFlagCommit,
			ValidatorAddress: v.ValidatorAddress,
			Timestamp:        v.Timestamp,
			Signature:        v.Signature,
		})
	}
	vs := types.NewValidatorSet(vals)
	before := c.Stats().Verifications
	if err := vs.VerifyCommitCached(chainID, blockID, 3, commit, c); err != nil {
		t.Fatalf("cached commit verification failed: %v", err)
	}
	if after := c.Stats().Verifications; after != before {
		t.Fatalf("commit fast path performed %d extra full verifications", after-before)
	}

	// A tampered commit signature still fails even with a warm cache.
	bad := &types.Commit{Height: 3, Round: 1, BlockID: blockID}
	bad.Signatures = append([]types.CommitSig(nil), commit.Signatures...)
	bad.Signatures[2].Signature = append([]byte(nil), bad.Signatures[2].Signature...)
	bad.Signatures[2].Signature[5] ^= 0x01
	if err := vs.VerifyCommitCached(chainID, blockID, 3, bad, c); err == nil {
		t.Fatal("tampered commit signature accepted through the fast path")
	}

	// An unregistered verifier (nil) still verifies the commit fully.
	if err := vs.VerifyCommitCached(chainID, blockID, 3, commit, nil); err != nil {
		t.Fatalf("nil-verifier commit verification failed: %v", err)
	}
}
