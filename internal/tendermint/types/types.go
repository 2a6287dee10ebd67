// Package types defines the Tendermint block structure described in §II-A
// of the paper: Header, Data, Evidence and LastCommit fields, votes,
// commits and validator sets.
package types

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"ibcbench/internal/merkle"
	"ibcbench/internal/valkey"
)

// Hash is a 32-byte digest.
type Hash = merkle.Hash

// Tx is an opaque transaction from Tendermint's perspective: "Transaction
// data is application-specific and unknown to Tendermint" (§II-A). The
// application layer provides concrete implementations.
type Tx interface {
	// Hash uniquely identifies the transaction.
	Hash() Hash
	// Size is the encoded size in bytes, used for block/mempool limits.
	Size() int
	// GasWanted is the gas limit the submitter attached.
	GasWanted() uint64
}

// BlockID identifies a block by its header hash.
type BlockID struct {
	Hash Hash
}

// IsZero reports whether the BlockID is the nil block (a round that
// failed to decide).
func (b BlockID) IsZero() bool { return b.Hash == Hash{} }

// SignedMsgType distinguishes the two voting stages of a consensus round.
type SignedMsgType byte

// Vote types, per the two-stage voting protocol (§II-A).
const (
	PrevoteType SignedMsgType = iota + 1
	PrecommitType
)

// BlockIDFlag indicates what a validator's commit signature voted for.
type BlockIDFlag byte

// Commit signature flags, mirroring Tendermint's LastCommit encoding
// (Fig. 1 of the paper).
const (
	// BlockIDFlagAbsent marks a validator that did not cast a vote.
	BlockIDFlagAbsent BlockIDFlag = iota + 1
	// BlockIDFlagCommit marks a vote for the block accepted by the majority.
	BlockIDFlagCommit
	// BlockIDFlagNil marks a vote for a different (nil) block.
	BlockIDFlagNil
)

// Header carries block metadata (Fig. 1).
type Header struct {
	Version            uint64
	ChainID            string
	Height             int64
	Time               time.Duration // virtual time of proposal
	LastBlockID        BlockID
	LastCommitHash     Hash
	DataHash           Hash
	ValidatorsHash     Hash
	NextValidatorsHash Hash
	ConsensusHash      Hash
	AppHash            Hash
	LastResultsHash    Hash
	EvidenceHash       Hash
	ProposerAddress    valkey.Address
}

// Hash computes the header digest that serves as the BlockID.
func (h *Header) Hash() Hash {
	hs := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(buf[:], v)
		hs.Write(buf[:])
	}
	put(h.Version)
	hs.Write([]byte(h.ChainID))
	put(uint64(h.Height))
	put(uint64(h.Time))
	hs.Write(h.LastBlockID.Hash[:])
	hs.Write(h.LastCommitHash[:])
	hs.Write(h.DataHash[:])
	hs.Write(h.ValidatorsHash[:])
	hs.Write(h.NextValidatorsHash[:])
	hs.Write(h.ConsensusHash[:])
	hs.Write(h.AppHash[:])
	hs.Write(h.LastResultsHash[:])
	hs.Write(h.EvidenceHash[:])
	hs.Write(h.ProposerAddress[:])
	var out Hash
	copy(out[:], hs.Sum(nil))
	return out
}

// Evidence is a proof of validator misbehaviour (empty in the absence of
// misbehaviour; carried for structural fidelity and punished by the app).
type Evidence struct {
	ValidatorAddress valkey.Address
	Height           int64
	Kind             string
}

// CommitSig is one validator's entry in a block's LastCommit.
type CommitSig struct {
	Flag             BlockIDFlag
	ValidatorAddress valkey.Address
	Timestamp        time.Duration
	Signature        []byte
}

// Commit is the aggregate of precommit votes that finalized a block.
type Commit struct {
	Height     int64
	Round      int32
	BlockID    BlockID
	Signatures []CommitSig
}

// Hash commits to the commit contents for the LastCommitHash header field.
func (c *Commit) Hash() Hash {
	if c == nil {
		return Hash{}
	}
	leaves := make([]merkle.Hash, 0, len(c.Signatures))
	for _, s := range c.Signatures {
		h := sha256.New()
		h.Write([]byte{byte(s.Flag)})
		h.Write(s.ValidatorAddress[:])
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(s.Timestamp))
		h.Write(buf[:])
		h.Write(s.Signature)
		var lh merkle.Hash
		copy(lh[:], h.Sum(nil))
		leaves = append(leaves, lh)
	}
	return merkle.HashLeaves(leaves)
}

// Block is a Tendermint block (Fig. 1): Header, Data, Evidence, LastCommit.
type Block struct {
	Header     Header
	Data       []Tx
	Evidence   []Evidence
	LastCommit *Commit
}

// DataHash commits to the ordered transaction list.
func DataHash(txs []Tx) Hash {
	leaves := make([]merkle.Hash, len(txs))
	for i, tx := range txs {
		leaves[i] = tx.Hash()
	}
	return merkle.HashLeaves(leaves)
}

// EvidenceHash commits to the evidence list.
func EvidenceHash(evs []Evidence) Hash {
	leaves := make([]merkle.Hash, len(evs))
	for i, ev := range evs {
		h := sha256.New()
		h.Write(ev.ValidatorAddress[:])
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(ev.Height))
		h.Write(buf[:])
		h.Write([]byte(ev.Kind))
		copy(leaves[i][:], h.Sum(nil))
	}
	return merkle.HashLeaves(leaves)
}

// TotalSize sums the encoded sizes of the block's transactions.
func (b *Block) TotalSize() int {
	n := 0
	for _, tx := range b.Data {
		n += tx.Size()
	}
	return n
}

// Vote is a single consensus vote (prevote or precommit).
type Vote struct {
	Type             SignedMsgType
	Height           int64
	Round            int32
	BlockID          BlockID
	Timestamp        time.Duration
	ValidatorAddress valkey.Address
	Signature        []byte
}

// VoteSignBytes produces the canonical bytes a validator signs for a vote.
func VoteSignBytes(chainID string, v *Vote) []byte {
	return AppendVoteSignBytes(make([]byte, 0, 64+len(chainID)), chainID, v)
}

// AppendVoteSignBytes appends the canonical vote sign bytes to dst and
// returns the extended slice. Hot paths (the consensus engine signs and
// the shared vote-verification cache checks every gossiped vote) pass a
// pooled buffer so per-vote encoding allocates nothing in steady state.
func AppendVoteSignBytes(dst []byte, chainID string, v *Vote) []byte {
	dst = append(dst, byte(v.Type))
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(v.Height))
	dst = append(dst, n[:]...)
	binary.BigEndian.PutUint64(n[:], uint64(v.Round))
	dst = append(dst, n[:]...)
	dst = append(dst, v.BlockID.Hash[:]...)
	dst = append(dst, chainID...)
	return dst
}

// VoteVerifier abstracts vote-signature verification so a chain-scoped
// cache (internal/tendermint/votesig) can skip the ed25519 check for
// votes it has already admitted. Implementations MUST only
// report true for signatures that verify under pub; callers MUST resolve
// pub from the claimed validator address in the chain's canonical set.
type VoteVerifier interface {
	// VerifyVote reports whether v.Signature is valid for v's sign bytes
	// under pub on the given chain.
	VerifyVote(chainID string, v *Vote, pub valkey.PubKey) bool
}

// Validator is one member of the validator set.
type Validator struct {
	Address     valkey.Address
	PubKey      valkey.PubKey
	VotingPower int64
}

// ValidatorSet is an ordered set of validators with proposer rotation.
type ValidatorSet struct {
	Validators []*Validator
	totalPower int64
	byAddr     map[valkey.Address]*Validator
}

// NewValidatorSet builds a set; order is preserved and determines the
// round-robin proposer schedule.
func NewValidatorSet(vals []*Validator) *ValidatorSet {
	vs := &ValidatorSet{
		Validators: append([]*Validator(nil), vals...),
		byAddr:     make(map[valkey.Address]*Validator, len(vals)),
	}
	for _, v := range vals {
		vs.totalPower += v.VotingPower
		vs.byAddr[v.Address] = v
	}
	return vs
}

// TotalPower reports the sum of voting power.
func (vs *ValidatorSet) TotalPower() int64 { return vs.totalPower }

// Size reports the number of validators.
func (vs *ValidatorSet) Size() int { return len(vs.Validators) }

// ByAddress looks a validator up; nil if absent.
func (vs *ValidatorSet) ByAddress(a valkey.Address) *Validator {
	return vs.byAddr[a]
}

// Proposer selects the proposer for a height/round by rotation: "In each
// round one participant from the validator set is elected as a proposer"
// (§II-A).
func (vs *ValidatorSet) Proposer(height int64, round int32) *Validator {
	if len(vs.Validators) == 0 {
		return nil
	}
	idx := (uint64(height) + uint64(round)) % uint64(len(vs.Validators))
	return vs.Validators[idx]
}

// Hash commits to the validator set for the header's ValidatorsHash.
func (vs *ValidatorSet) Hash() Hash {
	leaves := make([]merkle.Hash, len(vs.Validators))
	for i, v := range vs.Validators {
		h := sha256.New()
		h.Write(v.Address[:])
		h.Write(v.PubKey.Bytes())
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.VotingPower))
		h.Write(buf[:])
		copy(leaves[i][:], h.Sum(nil))
	}
	return merkle.HashLeaves(leaves)
}

// Commit verification errors.
var (
	ErrCommitHeightMismatch = errors.New("types: commit height mismatch")
	ErrCommitWrongBlockID   = errors.New("types: commit is for a different block")
	ErrInsufficientPower    = errors.New("types: less than 2/3+ voting power signed")
)

// VerifyCommit checks that a commit carries valid signatures from more
// than 2/3 of the validator set's voting power for the given block. This
// is the check light clients perform when accepting counterparty headers.
func (vs *ValidatorSet) VerifyCommit(chainID string, blockID BlockID, height int64, commit *Commit) error {
	return vs.VerifyCommitCached(chainID, blockID, height, commit, nil)
}

// VerifyCommitCached is VerifyCommit with a batched fast path: commit
// signatures already admitted through vv (the source chain's live vote
// path) are not re-verified — a commit signature is byte-for-byte the
// precommit vote the engine's shared cache already checked. A nil vv
// verifies every signature directly.
func (vs *ValidatorSet) VerifyCommitCached(chainID string, blockID BlockID, height int64, commit *Commit, vv VoteVerifier) error {
	if commit == nil || commit.Height != height {
		return ErrCommitHeightMismatch
	}
	if commit.BlockID != blockID {
		return ErrCommitWrongBlockID
	}
	var signed int64
	vote := Vote{
		Type:    PrecommitType,
		Height:  commit.Height,
		Round:   commit.Round,
		BlockID: commit.BlockID,
	}
	seen := make(map[valkey.Address]bool, len(commit.Signatures))
	for _, sig := range commit.Signatures {
		if sig.Flag != BlockIDFlagCommit {
			continue
		}
		val := vs.byAddr[sig.ValidatorAddress]
		if val == nil || seen[sig.ValidatorAddress] {
			continue
		}
		vote.ValidatorAddress = sig.ValidatorAddress
		vote.Signature = sig.Signature
		ok := false
		if vv != nil {
			ok = vv.VerifyVote(chainID, &vote, val.PubKey)
		} else {
			ok = val.PubKey.Verify(VoteSignBytes(chainID, &vote), sig.Signature)
		}
		if !ok {
			return fmt.Errorf("types: invalid signature from %s", sig.ValidatorAddress)
		}
		seen[sig.ValidatorAddress] = true
		signed += val.VotingPower
	}
	if signed*3 <= vs.totalPower*2 {
		return ErrInsufficientPower
	}
	return nil
}
