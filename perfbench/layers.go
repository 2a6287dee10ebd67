package main

// Per-layer work counts read from the public accessors of a finished
// deployment, and replays of two layer functions over the run's own
// stored inputs.

import (
	"fmt"
	"time"

	"ibcbench/internal/eventindex"
	"ibcbench/internal/relayer"
	"ibcbench/internal/tendermint/types"
	"ibcbench/internal/topo"
	"ibcbench/internal/workload"
)

// layerCounts reads the exact-per-seed work counters of one run.
func layerCounts(res *topo.Result, dep *topo.Deployment) []metric {
	var rounds, empty, verified, hits, rejected, added, refused, scans uint64
	for _, c := range dep.Chains {
		rounds += c.Engine.TotalRounds()
		empty += c.Engine.EmptyBlocks()
		vs := c.Engine.VoteCache().Stats()
		verified += vs.Verifications
		hits += vs.Hits
		rejected += vs.Rejected
		added += c.Pool.Added()
		refused += c.Pool.Rejected()
		scans += c.Events.ScanCount()
	}
	var rs relayer.Stats
	var ws workload.Stats
	for _, e := range res.Edges {
		for _, r := range e.Relayers {
			rs.RecvDelivered += r.RecvDelivered
			rs.AcksDelivered += r.AcksDelivered
			rs.TimeoutsDelivered += r.TimeoutsDelivered
			rs.RedundantErrors += r.RedundantErrors
			rs.FramesLost += r.FramesLost
			rs.TxsSubmitted += r.TxsSubmitted
			rs.TxsFailed += r.TxsFailed
			rs.Retries += r.Retries
		}
		ws.Requested += e.Workload.Requested
		ws.Submitted += e.Workload.Submitted
		ws.Failed += e.Workload.Failed
	}
	count := func(name string, v uint64) metric { return metric{name, float64(v), "count"} }
	return []metric{
		count("sim.events", dep.TotalProcessed()),
		count("netem.sent", dep.Net.Sent()),
		count("netem.dropped", dep.Net.Dropped()),
		count("consensus.blocks", uint64(res.Blocks)),
		count("consensus.rounds", rounds),
		count("consensus.empty_blocks", empty),
		count("votesig.verifications", verified),
		count("votesig.hits", hits),
		count("votesig.rejected", rejected),
		{"votesig.hit_ratio", ratio(hits, hits+verified), "ratio"},
		count("mempool.added", added),
		count("mempool.rejected", refused),
		count("eventindex.scans", scans),
		count("relayer.txs_submitted", rs.TxsSubmitted),
		count("relayer.txs_failed", rs.TxsFailed),
		count("relayer.retries", rs.Retries),
		count("relayer.redundant_errors", rs.RedundantErrors),
		count("relayer.frames_lost", rs.FramesLost),
		count("relayer.msgs_delivered", rs.RecvDelivered+rs.AcksDelivered+rs.TimeoutsDelivered),
		{"relayer.tx_success_ratio", ratio(rs.TxsSubmitted-min(rs.TxsFailed, rs.TxsSubmitted), rs.TxsSubmitted), "ratio"},
		count("workload.requested", uint64(ws.Requested)),
		count("workload.submitted", uint64(ws.Submitted)),
		count("workload.failed", uint64(ws.Failed)),
	}
}

// ratio is num/den, or 0 for an empty denominator.
func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// replayDecode re-runs eventindex.Decode over every committed height's
// stored transactions, checks the result against the live index, and
// returns the time spent decoding.
func replayDecode(dep *topo.Deployment) (time.Duration, error) {
	var spent time.Duration
	for _, c := range dep.Chains {
		for h := int64(1); h <= c.Store.Height(); h++ {
			infos, err := c.Store.TxsAtHeight(h)
			if err != nil {
				return 0, err
			}
			blk, err := c.Store.Block(h)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			got := eventindex.Decode(h, blk.Block.Header.Time, infos)
			spent += time.Since(t0)
			want := c.Events.At(h)
			if want == nil || got.MsgCount != want.MsgCount || len(got.Txs) != len(want.Txs) {
				return 0, fmt.Errorf("replay decode of %s height %d disagrees with the live index", c.ID, h)
			}
		}
	}
	return spent, nil
}

// replayVerifyCommit re-verifies every stored commit against its chain's
// validator set without the vote cache, and returns the time spent.
func replayVerifyCommit(dep *topo.Deployment) (time.Duration, error) {
	var spent time.Duration
	for _, c := range dep.Chains {
		vs := c.Engine.ValidatorSet()
		for h := int64(1); h <= c.Store.Height(); h++ {
			blk, err := c.Store.Block(h)
			if err != nil {
				return 0, err
			}
			id := types.BlockID{Hash: blk.Block.Header.Hash()}
			t0 := time.Now()
			err = vs.VerifyCommit(c.ID, id, h, blk.Commit)
			spent += time.Since(t0)
			if err != nil {
				return 0, fmt.Errorf("replay verify of %s height %d: %w", c.ID, h, err)
			}
		}
	}
	return spent, nil
}
