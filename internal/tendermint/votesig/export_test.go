package votesig

import "ibcbench/internal/tendermint/types"

// Admitted lists every admitted tuple as a vote carrying its admitted
// signature, so tests can audit the cache against the validator set.
func (c *Cache) Admitted() []types.Vote {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]types.Vote, 0, len(c.admitted))
	for k, sig := range c.admitted {
		out = append(out, types.Vote{
			Type:             k.Type,
			Height:           k.Height,
			Round:            k.Round,
			BlockID:          types.BlockID{Hash: k.BlockID},
			ValidatorAddress: k.Validator,
			Signature:        sig,
		})
	}
	return out
}
