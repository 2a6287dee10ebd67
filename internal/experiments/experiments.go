// Package experiments contains one driver per table and figure of the
// paper's evaluation (§IV): each function regenerates the corresponding
// rows/series on the simulated testbed. Registry maps every driver to
// its `-experiment` selectors; each driver's comment names the paper
// figure or table it reproduces.
package experiments

import (
	"fmt"
	"time"

	"ibcbench/internal/app"
	"ibcbench/internal/framework"
	"ibcbench/internal/metrics"
	"ibcbench/internal/netem"
	"ibcbench/internal/simconf"
	"ibcbench/internal/tendermint/store"
	"ibcbench/internal/topo"
	"ibcbench/internal/workload"
)

// Options bounds an experiment's cost. The paper runs 20 executions per
// configuration; tests and benches default lower.
type Options struct {
	Seeds int
	// Rates overrides the swept input rates (requests/second).
	Rates []int
	// Windows is the number of submission block-windows.
	Windows int
	// Workers bounds the sweep worker pool (0 = GOMAXPROCS, 1 = serial).
	// Each (config, seed) execution is an independent deterministic
	// simulation, so parallel and serial sweeps yield identical results.
	Workers int
	// Regions optionally places topology deployments on a geo region
	// preset (see geo.ParseSpec; "" = the paper's uniform WAN).
	Regions string
	// Validators overrides every chain's validator-set size in topology
	// deployments (0 = the paper's five); the votescale experiment sweeps
	// this axis explicitly.
	Validators int
	// Parallel partitions each run's chains over this many intra-run
	// workers (0/1 = the serial scheduler). Results are byte-identical
	// either way; see topo.DeployConfig.ParallelWorkers.
	Parallel int
	// Live publishes periodic progress snapshots of every topology-
	// scenario run (nil = disabled; see topo.LiveConfig). Sweeps run
	// seeds concurrently, so the hook must be safe for concurrent use.
	// The hook is read-only on the deployment and never changes
	// simulation results.
	Live *topo.LiveConfig
}

func (o Options) seeds() int {
	if o.Seeds <= 0 {
		return 3
	}
	return o.Seeds
}

// deployTwoChain deploys the paper's testbed (Fig. 5's Setup module): two
// chains, one channel and its relayers, plus the generator submitting
// transfers A -> B through the first relayer's full node. The generator
// is created before the chains start; that order fixes the deployment's
// RNG draws.
func deployTwoChain(cfg topo.DeployConfig) (*topo.Deployment, *workload.Generator) {
	d, err := topo.Deploy(topo.TwoChain(), cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: two-chain deploy: %v", err))
	}
	gen := d.Links[0].Forward()
	d.Start()
	return d, gen
}

// --- Fig. 6 / Fig. 7 / Table I: Tendermint-side throughput sweep -------------

// Table1Row is one row of Table I.
type Table1Row struct {
	Rate      int
	Requested int
	Submitted int
	Committed int
}

// TendermintResult bundles the three artifacts of the submission sweep.
type TendermintResult struct {
	Fig6   framework.Series // throughput violins (TFPS)
	Fig7   framework.Series // mean block interval (seconds)
	Table1 []Table1Row
}

// DefaultTendermintRates is a representative subset of the paper's
// 250–14,000 RPS sweep.
var DefaultTendermintRates = []int{250, 500, 1000, 2000, 3000, 5000, 7000, 9000, 11000, 13000}

// Tendermint runs the MsgTransfer inclusion sweep (Figs. 6, 7; Table I):
// submit transfer batches for `Windows` consecutive block windows and
// measure inclusion throughput and block intervals.
func Tendermint(opt Options) TendermintResult {
	rates := opt.Rates
	if rates == nil {
		rates = DefaultTendermintRates
	}
	windows := opt.Windows
	if windows <= 0 {
		windows = 15
	}
	res := TendermintResult{
		Fig6: framework.Series{Name: "Fig6 Tendermint throughput", XLabel: "rate(rps)", YLabel: "TFPS"},
		Fig7: framework.Series{Name: "Fig7 block interval", XLabel: "rate(rps)", YLabel: "seconds"},
	}
	type job struct{ rate, seed int }
	type run struct {
		tput     float64
		hasTput  bool
		interval float64
		stats    workload.Stats
		commit   int
	}
	var jobs []job
	for _, rate := range rates {
		for seed := 0; seed < opt.seeds(); seed++ {
			jobs = append(jobs, job{rate, seed})
		}
	}
	runs := ParallelMap(jobs, opt.Workers, func(j job) run {
		d, gen := deployTwoChain(topo.DeployConfig{Seed: int64(1000*j.rate + j.seed)})
		gen.RunConstantRate(j.rate, windows)
		// Run long enough for all windows even with stretched blocks.
		deadline := time.Duration(windows+4) * simconf.MinBlockInterval * 16
		runUntilHeight(d, int64(windows)+2, deadline)

		st := d.Chains[0].Store
		committed, span := committedTransfers(st, int64(windows))
		r := run{interval: meanInterval(st).Seconds(), stats: gen.Stats(), commit: committed}
		if span > 0 {
			r.tput = float64(committed) / span.Seconds()
			r.hasTput = true
		}
		return r
	})
	for i, rate := range rates {
		var tput, intervals []float64
		row := Table1Row{Rate: rate}
		for s := 0; s < opt.seeds(); s++ {
			r := runs[i*opt.seeds()+s]
			if r.hasTput {
				tput = append(tput, r.tput)
			}
			intervals = append(intervals, r.interval)
			row.Requested += r.stats.Requested
			row.Submitted += r.stats.Submitted
			row.Committed += r.commit
		}
		res.Fig6.Add(float64(rate), metrics.Summarize(tput))
		res.Fig7.Add(float64(rate), metrics.Summarize(intervals))
		res.Table1 = append(res.Table1, row)
	}
	return res
}

// runUntilHeight advances the sim until chain A reaches height or the
// deadline passes, stepping block by block.
func runUntilHeight(d *topo.Deployment, height int64, deadline time.Duration) {
	step := simconf.MinBlockInterval
	for d.Sched.Now() < deadline && d.Chains[0].Store.Height() < height {
		_ = d.Run(d.Sched.Now() + step)
	}
}

// committedTransfers counts MsgTransfer messages committed in the first
// `windows` non-empty blocks and the time they span.
func committedTransfers(st *store.Store, windows int64) (int, time.Duration) {
	var (
		count      int
		first      = time.Duration(-1)
		last       time.Duration
		seenBlocks int64
	)
	for h := int64(1); h <= st.Height() && seenBlocks < windows; h++ {
		cb, err := st.Block(h)
		if err != nil {
			break
		}
		n := 0
		for _, tx := range cb.Block.Data {
			n += transferMsgs(tx)
		}
		if n == 0 && first < 0 {
			continue // skip warm-up empty blocks
		}
		seenBlocks++
		if first < 0 {
			first = cb.Block.Header.Time
		}
		last = cb.Block.Header.Time
		count += n
	}
	if first < 0 || last <= first {
		return count, simconf.MinBlockInterval * time.Duration(windows)
	}
	return count, last - first
}

func transferMsgs(tx interface{ Size() int }) int {
	t, ok := tx.(*app.Tx)
	if !ok {
		return 0
	}
	n := 0
	for _, m := range t.Msgs {
		if m.MsgType() == "MsgTransfer" {
			n++
		}
	}
	return n
}

// meanInterval averages inter-block times over non-genesis blocks.
func meanInterval(st *store.Store) time.Duration {
	if st.Height() < 2 {
		return 0
	}
	var prev time.Duration
	var total time.Duration
	n := 0
	for h := int64(1); h <= st.Height(); h++ {
		cb, _ := st.Block(h)
		if h > 1 {
			total += cb.Block.Header.Time - prev
			n++
		}
		prev = cb.Block.Header.Time
	}
	if n == 0 {
		return 0
	}
	return total / time.Duration(n)
}

// --- Fig. 8 / Fig. 9 / Fig. 10 / Fig. 11: relayer throughput ------------------

// RelayerPoint is one measured configuration of the relayer sweep.
type RelayerPoint struct {
	Rate       int
	Relayers   int
	LAN        bool
	Throughput metrics.Dist // TFPS across seeds
	// Mean completion-status counts (Figs. 10/11).
	Completed    float64
	Partial      float64
	Initiated    float64
	NotCommitted float64
	// Redundant errors per run (two-relayer pathology).
	RedundantErrors float64
}

// DefaultRelayerRates is a representative subset of the paper's
// 20–300 RPS sweep.
var DefaultRelayerRates = []int{20, 60, 100, 140, 180, 220, 300}

// RelayerSweep measures end-to-end cross-chain throughput within 50
// source-chain blocks (Figs. 8–11).
func RelayerSweep(opt Options, relayers int, lan bool) []RelayerPoint {
	rates := opt.Rates
	if rates == nil {
		rates = DefaultRelayerRates
	}
	windows := opt.Windows
	if windows <= 0 {
		windows = 50
	}
	type job struct{ rate, seed int }
	type run struct {
		counts    map[metrics.Status]int
		tput      float64
		hasTput   bool
		redundant float64
	}
	var jobs []job
	for _, rate := range rates {
		for seed := 0; seed < opt.seeds(); seed++ {
			jobs = append(jobs, job{rate, seed})
		}
	}
	runs := ParallelMap(jobs, opt.Workers, func(j job) run {
		cfg := topo.DeployConfig{
			Seed:            int64(7000*j.rate + 31*relayers + j.seed),
			RelayersPerEdge: relayers,
		}
		if lan {
			cfg.Network = netem.DefaultLAN()
		}
		d, gen := deployTwoChain(cfg)
		gen.RunConstantRate(j.rate, windows)
		deadline := time.Duration(windows+8) * simconf.MinBlockInterval * 4
		runUntilHeight(d, int64(windows), deadline)
		now := d.Sched.Now()
		link := d.Links[0]
		r := run{counts: link.Tracker.CompletionCounts()}
		if now > 0 {
			r.tput = float64(r.counts[metrics.StatusCompleted]) / now.Seconds()
			r.hasTput = true
		}
		for _, rs := range link.Relayers {
			r.redundant += float64(rs.Stats().RedundantErrors)
		}
		return r
	})
	var out []RelayerPoint
	for i, rate := range rates {
		pt := RelayerPoint{Rate: rate, Relayers: relayers, LAN: lan}
		var tputs []float64
		for s := 0; s < opt.seeds(); s++ {
			r := runs[i*opt.seeds()+s]
			if r.hasTput {
				tputs = append(tputs, r.tput)
			}
			pt.Completed += float64(r.counts[metrics.StatusCompleted])
			pt.Partial += float64(r.counts[metrics.StatusPartial])
			pt.Initiated += float64(r.counts[metrics.StatusInitiated])
			pt.NotCommitted += float64(r.counts[metrics.StatusNotCommitted])
			pt.RedundantErrors += r.redundant
		}
		n := float64(opt.seeds())
		pt.Completed /= n
		pt.Partial /= n
		pt.Initiated /= n
		pt.NotCommitted /= n
		pt.RedundantErrors /= n
		pt.Throughput = metrics.Summarize(tputs)
		out = append(out, pt)
	}
	return out
}

// --- Fig. 12: 13-step latency breakdown ---------------------------------------

// StepSpan is one step's activity window across all packets.
type StepSpan struct {
	Step  metrics.Step
	First time.Duration
	Last  time.Duration
}

// Fig12Result is the step breakdown of a single-block batch.
type Fig12Result struct {
	Transfers int
	Steps     []StepSpan
	// Total is the elapsed time from first broadcast to last completion.
	Total time.Duration
	// Phase durations (transfer / receive / ack) and the two data pulls.
	TransferPhase    time.Duration
	ReceivePhase     time.Duration
	AckPhase         time.Duration
	TransferDataPull time.Duration
	RecvDataPull     time.Duration
	Completed        int
}

// Fig12 submits `transfers` requests within one block and reports the
// 13-step breakdown. The paper's run uses 5,000 transfers.
func Fig12(transfers int, seed int64) Fig12Result {
	d, gen := deployTwoChain(topo.DeployConfig{Seed: seed})
	d.Sched.At(time.Millisecond, func() { gen.SubmitBatch(transfers) })
	_ = d.Run(45 * time.Minute)

	t := d.Links[0].Tracker
	res := Fig12Result{Transfers: transfers}
	res.Completed = t.CompletionCounts()[metrics.StatusCompleted]
	var firstBroadcast, lastAck time.Duration
	for s := metrics.Step(1); int(s) <= metrics.NumSteps; s++ {
		first, last, ok := t.StepSpan(s)
		if !ok {
			continue
		}
		res.Steps = append(res.Steps, StepSpan{Step: s, First: first, Last: last})
		if s == metrics.StepTransferBroadcast {
			firstBroadcast = first
		}
		if s == metrics.StepAckConfirmation {
			lastAck = last
		}
	}
	res.Total = lastAck - firstBroadcast
	phase := func(from, to metrics.Step) time.Duration {
		_, lastTo, ok2 := t.StepSpan(to)
		_, lastFrom, ok1 := t.StepSpan(from)
		if !ok1 || !ok2 {
			return 0
		}
		return lastTo - lastFrom
	}
	res.TransferPhase = phase(metrics.StepTransferBroadcast, metrics.StepTransferDataPull)
	res.ReceivePhase = phase(metrics.StepTransferDataPull, metrics.StepRecvDataPull)
	res.AckPhase = phase(metrics.StepRecvDataPull, metrics.StepAckConfirmation)
	res.TransferDataPull = phase(metrics.StepTransferConfirmation, metrics.StepTransferDataPull)
	res.RecvDataPull = phase(metrics.StepRecvConfirmation, metrics.StepRecvDataPull)
	return res
}

// --- Fig. 13: submission strategies --------------------------------------------

// Fig13Row is one submission strategy's outcome.
type Fig13Row struct {
	Blocks     int
	Completion time.Duration // first broadcast -> last completion
	Completed  int
}

// DefaultStrategies mirrors the paper: split 5,000 transfers over
// 1..64 blocks.
var DefaultStrategies = []int{1, 2, 4, 8, 16, 32, 64}

// Fig13 measures completion latency for each submission strategy.
func Fig13(transfers int, strategies []int, seed int64) []Fig13Row {
	if strategies == nil {
		strategies = DefaultStrategies
	}
	var out []Fig13Row
	for _, blocks := range strategies {
		d, gen := deployTwoChain(topo.DeployConfig{Seed: seed + int64(blocks)})
		gen.SubmitSpread(transfers, blocks)
		_ = d.Run(45 * time.Minute)
		t := d.Links[0].Tracker
		first, _, ok1 := t.StepSpan(metrics.StepTransferBroadcast)
		_, last, ok2 := t.StepSpan(metrics.StepAckConfirmation)
		row := Fig13Row{
			Blocks:    blocks,
			Completed: t.CompletionCounts()[metrics.StatusCompleted],
		}
		if ok1 && ok2 {
			row.Completion = last - first
		}
		out = append(out, row)
	}
	return out
}

// --- Gas table (§IV-A) ---------------------------------------------------------

// GasRow reports measured gas for a 100-message transaction class.
type GasRow struct {
	MsgType  string
	Measured uint64
	Paper    uint64
}

// GasTable measures per-class gas on a live run of 100 transfers.
func GasTable(seed int64) []GasRow {
	d, gen := deployTwoChain(topo.DeployConfig{Seed: seed})
	d.Sched.At(time.Millisecond, func() { gen.SubmitBatch(100) })
	_ = d.Run(10 * time.Minute)
	want := map[string]uint64{
		"MsgTransfer":        3669161,
		"MsgRecvPacket":      7238699,
		"MsgAcknowledgement": 3107462,
	}
	got := map[string]uint64{}
	scan := func(st *store.Store) {
		for h := int64(1); h <= st.Height(); h++ {
			cb, _ := st.Block(h)
			for i, tx := range cb.Block.Data {
				t, ok := tx.(*app.Tx)
				if !ok || len(t.Msgs) < 100 || !cb.Results[i].IsOK() {
					continue
				}
				kind := t.Msgs[len(t.Msgs)-1].MsgType() // last msg: batch class
				if _, tracked := want[kind]; tracked && got[kind] == 0 {
					got[kind] = cb.Results[i].GasUsed
				}
			}
		}
	}
	scan(d.Chains[0].Store)
	scan(d.Chains[1].Store)
	var out []GasRow
	for _, k := range []string{"MsgTransfer", "MsgRecvPacket", "MsgAcknowledgement"} {
		out = append(out, GasRow{MsgType: k, Measured: got[k], Paper: want[k]})
	}
	return out
}

// --- WebSocket limit (§V) --------------------------------------------------------

// WebSocketResult classifies transfers after the frame-overflow scenario.
type WebSocketResult struct {
	Transfers  int
	FramesLost uint64
	Completed  int
	TimedOut   uint64
	Stuck      int
}

// WebSocketLimit reproduces §V's overflow experiment: a block containing
// 1,000 transactions with 100 transfers each, relayer clear interval 0.
// Transactions are injected directly into the mempool so they land in a
// single block, as in the paper.
func WebSocketLimit(seed int64, txs, timeoutBlocks int) WebSocketResult {
	d, gen := deployTwoChain(topo.DeployConfig{Seed: seed})
	gen.TimeoutBlocks = int64(timeoutBlocks)
	d.Sched.At(time.Millisecond, func() {
		gen.InjectDirect(txs * 100)
	})
	// Run for 4x the timeout horizon, as the paper does.
	_ = d.Run(time.Duration(4*timeoutBlocks+40) * simconf.MinBlockInterval)

	link := d.Links[0]
	counts := link.Tracker.CompletionCounts()
	res := WebSocketResult{
		Transfers: txs * 100,
		Completed: counts[metrics.StatusCompleted],
	}
	for _, r := range link.Relayers {
		res.FramesLost += r.Stats().FramesLost
		res.TimedOut += r.Stats().TimeoutsDelivered
	}
	// Stuck: committed on source, never delivered, never timed out.
	res.Stuck = counts[metrics.StatusInitiated] - int(res.TimedOut)
	if res.Stuck < 0 {
		res.Stuck = 0
	}
	return res
}
