// Package votesig is the per-chain shared vote-verification engine.
//
// In the gossip protocol every validator re-verified every vote it
// received, making block production O(V^2) in ed25519 signature checks
// (each of the ~2V votes per round is delivered to all V nodes). The
// votes themselves are chain-global facts: a vote's sign bytes depend
// only on (chainID, type, height, round, blockID) and its signature on
// the validator's key, so one valid signature holds for every receiver.
// The Cache records each admitted (validator, height, round, type,
// blockID) tuple together with its exact signature bytes; a delivery
// whose signature is byte-identical to the admitted one is a hit and
// skips the curve operation.
//
// A tuple is admitted in one of two ways. Honest in-process validators
// sign through Cache.Sign, which admits the tuple with the signature it
// just produced, so every delivery of an honest vote — to the signer
// itself, to the other V-1 nodes and to light clients — is a hit and the
// only curve work left is signing. Any other vote is admitted by
// VerifyVote after it passes a full ed25519 check.
//
// Safety: admitting at sign time is sound because ed25519 is correct (a
// signature produced by a key always verifies under its public key) and
// the signer uses the key the chain's canonical validator set binds to
// the vote's validator address. Receivers resolve the public key from
// that same address in the same set, so the check the sign-time entry
// stands in for would have succeeded. A hit requires the candidate
// signature to be byte-identical to the admitted one: a forged,
// tampered, stranger or re-pointed vote (another block ID under the
// same signature) never matches an admitted entry, falls through to a
// full verification, and fails.
//
// The same engine backs the batched VerifyCommit fast path: a block's
// commit signatures are byte-for-byte the precommit votes the live path
// already admitted, so light-client header verification skips them too
// (types.ValidatorSet.VerifyCommitCached).
package votesig

import (
	"bytes"
	"sync"
	"sync/atomic"

	"ibcbench/internal/tendermint/types"
	"ibcbench/internal/valkey"
)

// key identifies one vote as a chain-global fact. Two honest votes never
// share a key; a conflicting (equivocating) vote differs in BlockID and
// therefore verifies — and caches — separately.
type key struct {
	Validator valkey.Address
	Height    int64
	Round     int32
	Type      types.SignedMsgType
	BlockID   types.Hash
}

// Stats reports the cache's verification counters.
type Stats struct {
	// Verifications counts full ed25519 checks performed (cache misses
	// plus every check in reference mode).
	Verifications uint64
	// Hits counts verifications skipped because the identical vote was
	// already admitted.
	Hits uint64
	// Rejected counts signatures that failed the full check.
	Rejected uint64
	// Signed counts votes signed and admitted through Sign.
	Signed uint64
	// ReadOnlyVerifications counts full checks performed by ReadOnly
	// views (their cache misses).
	ReadOnlyVerifications uint64
	// Size is the number of admitted tuples currently retained.
	Size int
}

// Cache is one chain's shared vote-verification engine. The consensus
// engine that owns it mutates it on the chain's scheduler; under
// parallel runs other chains' light-client paths consult it through
// read-only verifiers (ReadOnly), so the admitted map is guarded by a
// read/write lock.
type Cache struct {
	mu       sync.RWMutex
	chainID  string
	admitted map[key][]byte // admitted tuple -> its signature bytes
	buf      []byte         // pooled sign-bytes buffer (AppendVoteSignBytes)
	stats    Stats
	// roVerifications is bumped by ReadOnly views on other partitions.
	roVerifications atomic.Uint64
}

// New creates the cache for one chain.
func New(chainID string) *Cache {
	return &Cache{chainID: chainID, admitted: make(map[key][]byte)}
}

func keyOf(v *types.Vote) key {
	return key{
		Validator: v.ValidatorAddress,
		Height:    v.Height,
		Round:     v.Round,
		Type:      v.Type,
		BlockID:   v.BlockID.Hash,
	}
}

// Sign signs v with key and admits the vote's tuple with the resulting
// signature, so every later delivery of v is a hit. The caller must sign
// with the key the chain's canonical validator set binds to
// v.ValidatorAddress. The signature is a fresh slice that nothing else
// writes to, so the cache keeps it without copying.
func (c *Cache) Sign(key *valkey.PrivKey, v *types.Vote) {
	c.buf = types.AppendVoteSignBytes(c.buf[:0], c.chainID, v)
	v.Signature = key.Sign(c.buf)
	c.stats.Signed++
	c.mu.Lock()
	c.admitted[keyOf(v)] = v.Signature
	c.mu.Unlock()
}

// VerifyVote implements types.VoteVerifier: it reports whether the vote's
// signature is valid under pub, performing the ed25519 check at most once
// chain-wide per distinct vote and never for a vote admitted by Sign.
// Votes for a foreign chain ID never touch the cache (they are verified
// directly) — a cache is bound to the chain whose sign-bytes domain it
// admitted signatures under.
func (c *Cache) VerifyVote(chainID string, v *types.Vote, pub valkey.PubKey) bool {
	if chainID != c.chainID {
		return c.VerifyDirect(chainID, v, pub)
	}
	k := keyOf(v)
	c.mu.RLock()
	sig, ok := c.admitted[k]
	c.mu.RUnlock()
	if ok && bytes.Equal(sig, v.Signature) {
		c.stats.Hits++
		return true
	}
	if !c.fullVerify(chainID, v, pub) {
		return false
	}
	c.mu.Lock()
	c.admitted[k] = append([]byte(nil), v.Signature...)
	c.mu.Unlock()
	return true
}

// VerifyDirect performs the full signature check without consulting or
// populating the cache — the O(V^2) reference path, kept so scenario
// results can be pinned byte-identical against the shared engine while
// the counters expose the verification-count difference.
func (c *Cache) VerifyDirect(chainID string, v *types.Vote, pub valkey.PubKey) bool {
	return c.fullVerify(chainID, v, pub)
}

func (c *Cache) fullVerify(chainID string, v *types.Vote, pub valkey.PubKey) bool {
	c.buf = types.AppendVoteSignBytes(c.buf[:0], chainID, v)
	c.stats.Verifications++
	if !pub.Verify(c.buf, v.Signature) {
		c.stats.Rejected++
		return false
	}
	return true
}

// PruneBelow drops admitted tuples for heights below h. The engine prunes
// a trailing window behind the committed height: live votes for old
// heights no longer arrive, and a pruned commit signature merely falls
// back to a full verification in the light-client path.
func (c *Cache) PruneBelow(h int64) {
	c.mu.Lock()
	for k := range c.admitted {
		if k.Height < h {
			delete(c.admitted, k)
		}
	}
	c.mu.Unlock()
}

// Stats snapshots the verification counters.
func (c *Cache) Stats() Stats {
	s := c.stats
	s.ReadOnlyVerifications = c.roVerifications.Load()
	c.mu.RLock()
	s.Size = len(c.admitted)
	c.mu.RUnlock()
	return s
}

// ReadOnly is a cross-chain view of the cache for light-client paths
// that run on another chain's partition: a hit requires an admitted
// byte-identical signature (lock-guarded read), a miss falls back to a
// full ed25519 check against a private sign-bytes buffer. It never
// admits tuples; its full checks are counted only in the owner's atomic
// ReadOnlyVerifications, so the owner's other counters stay
// single-writer.
type ReadOnly struct {
	c   *Cache
	buf []byte
}

// ReadOnly derives a read-only verifier. Each consumer (one keeper's
// counterparty registration) must hold its own instance: the verifier
// itself is single-threaded, only its view of the cache is shared.
func (c *Cache) ReadOnly() *ReadOnly { return &ReadOnly{c: c} }

// VerifyVote implements types.VoteVerifier without mutating the cache.
func (r *ReadOnly) VerifyVote(chainID string, v *types.Vote, pub valkey.PubKey) bool {
	if chainID == r.c.chainID {
		k := keyOf(v)
		r.c.mu.RLock()
		sig, ok := r.c.admitted[k]
		hit := ok && bytes.Equal(sig, v.Signature)
		r.c.mu.RUnlock()
		if hit {
			return true
		}
	}
	r.buf = types.AppendVoteSignBytes(r.buf[:0], chainID, v)
	r.c.roVerifications.Add(1)
	return pub.Verify(r.buf, v.Signature)
}
