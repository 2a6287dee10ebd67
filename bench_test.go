// Package ibcbench's top-level benchmarks regenerate every table and
// figure of the paper's evaluation section (§IV). Each bench runs the
// corresponding experiment driver once per iteration and reports the
// headline metric via b.ReportMetric, so `go test -bench=. -benchmem`
// reprints the paper's rows/series. The hot-path benchmarks after them
// feed the CI bench job and BENCH_baseline.json; the consensus package
// holds the vote fan-out and quorum-tally benchmarks.
package ibcbench_test

import (
	"encoding/json"
	"fmt"
	"testing"

	"ibcbench/internal/abci"
	"ibcbench/internal/app"
	"ibcbench/internal/eventindex"
	"ibcbench/internal/experiments"
	"ibcbench/internal/ibc"
	"ibcbench/internal/merkle"
	"ibcbench/internal/metrics"
	"ibcbench/internal/obs"
	"ibcbench/internal/tendermint/store"
	"ibcbench/internal/topo"
)

// benchOpts keeps bench iterations affordable; `cmd/ibcbench` runs the
// full sweeps with more seeds.
var benchOpts = experiments.Options{Seeds: 1}

func BenchmarkFig6TendermintThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Tendermint(experiments.Options{
			Seeds: 1, Rates: []int{500, 3000, 9000}, Windows: 10,
		})
		peak := 0.0
		for _, d := range res.Fig6.Y {
			if d.Mean > peak {
				peak = d.Mean
			}
		}
		b.ReportMetric(peak, "peak-TFPS")
	}
}

func BenchmarkFig7BlockInterval(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Tendermint(experiments.Options{
			Seeds: 1, Rates: []int{500, 9000}, Windows: 10,
		})
		last := res.Fig7.Y[len(res.Fig7.Y)-1]
		b.ReportMetric(last.Mean, "interval-sec-at-9000rps")
	}
}

func BenchmarkTable1ExecutionSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Tendermint(experiments.Options{
			Seeds: 1, Rates: []int{3000, 13000}, Windows: 10,
		})
		row := res.Table1[len(res.Table1)-1]
		b.ReportMetric(100*float64(row.Submitted)/float64(row.Requested), "submitted-pct-at-13000rps")
	}
}

func BenchmarkFig8SingleRelayer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.RelayerSweep(experiments.Options{
			Seeds: 1, Rates: []int{100, 140}, Windows: 30,
		}, 1, false)
		peak := 0.0
		for _, p := range pts {
			if p.Throughput.Mean > peak {
				peak = p.Throughput.Mean
			}
		}
		b.ReportMetric(peak, "peak-TFPS")
	}
}

func BenchmarkFig9TwoRelayers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.RelayerSweep(experiments.Options{
			Seeds: 1, Rates: []int{140}, Windows: 30,
		}, 2, false)
		b.ReportMetric(pts[0].Throughput.Mean, "TFPS")
		b.ReportMetric(pts[0].RedundantErrors, "redundant-errors")
	}
}

func BenchmarkFig10CompletionOneRelayer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.RelayerSweep(experiments.Options{
			Seeds: 1, Rates: []int{220}, Windows: 30,
		}, 1, false)
		b.ReportMetric(pts[0].Completed, "completed")
		b.ReportMetric(pts[0].Partial, "partial")
		b.ReportMetric(pts[0].Initiated, "initiated")
	}
}

func BenchmarkFig11CompletionTwoRelayers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.RelayerSweep(experiments.Options{
			Seeds: 1, Rates: []int{220}, Windows: 30,
		}, 2, false)
		b.ReportMetric(pts[0].Completed, "completed")
		b.ReportMetric(pts[0].Partial, "partial")
	}
}

func BenchmarkFig12LatencyBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Fig12(5000, int64(42+i))
		b.ReportMetric(res.Total.Seconds(), "total-sec")
		pulls := res.TransferDataPull + res.RecvDataPull
		b.ReportMetric(100*pulls.Seconds()/res.Total.Seconds(), "datapull-pct")
	}
}

func BenchmarkFig13SubmissionStrategies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Fig13(5000, []int{1, 16, 64}, int64(7+i))
		b.ReportMetric(rows[0].Completion.Seconds(), "1-block-sec")
		b.ReportMetric(rows[1].Completion.Seconds(), "16-block-sec")
		b.ReportMetric(rows[2].Completion.Seconds(), "64-block-sec")
	}
}

func BenchmarkGasPerMessageClass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.GasTable(int64(3 + i))
		for _, r := range rows {
			b.ReportMetric(float64(r.Measured), "gas-"+r.MsgType)
		}
	}
}

func BenchmarkWebSocketLimit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.WebSocketLimit(int64(5+i), 1000, 60)
		total := float64(res.Transfers)
		b.ReportMetric(100*float64(res.Completed)/total, "completed-pct")
		b.ReportMetric(100*float64(res.Stuck)/total, "stuck-pct")
	}
}

// --- hot-path benchmarks (shared event index + incremental commits) ----------

// benchBlock assembles one committed block's TxInfos: txs transactions,
// each carrying msgs send_packet events round-robined over nChans channels.
func benchBlock(txs, msgs, nChans int) []*store.TxInfo {
	infos := make([]*store.TxInfo, txs)
	for i := range infos {
		events := make([]abci.Event, msgs)
		m := make([]app.Msg, msgs)
		for j := range events {
			p := ibc.Packet{
				SourcePort:    "transfer",
				SourceChannel: fmt.Sprintf("channel-%d", (i+j)%nChans),
				DestPort:      "transfer",
				DestChannel:   "channel-9",
				Sequence:      uint64(i*msgs + j + 1),
			}
			raw, _ := json.Marshal(p)
			events[j] = abci.Event{Type: "send_packet", Attributes: map[string]string{"packet": string(raw)}}
			m[j] = ibc.MsgRecvPacket{Packet: p}
		}
		infos[i] = &store.TxInfo{
			Height: 1,
			Index:  i,
			Tx:     app.NewTx(fmt.Sprintf("signer-%d", i), 0, uint64(i), m),
			Result: abci.TxResult{Events: events},
		}
	}
	return infos
}

// BenchmarkEventDecode measures the single shared decode pass over one
// block against the pre-index behaviour of K relayer endpoints each
// re-decoding the block for their own channel.
func BenchmarkEventDecode(b *testing.B) {
	infos := benchBlock(20, 100, 4)
	b.Run("shared-index-1pass", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			be := eventindex.Decode(1, 0, infos)
			if len(be.Txs) != 20 {
				b.Fatal("decode lost txs")
			}
		}
	})
	for _, k := range []int{4, 8} {
		b.Run(fmt.Sprintf("per-relayer-%dpasses", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for r := 0; r < k; r++ {
					eventindex.Decode(1, 0, infos)
				}
			}
		})
	}
}

// BenchmarkRelayerHubScan runs a full hub scenario per iteration; with
// the shared index its host-side scan cost is O(1) in relayer count, so
// doubling relayers must not double the event-decode work. allocs/op is
// reported so CI tracks the batch-build slice recycling (packet and ack
// buffers return to per-relayer free lists after submission).
func BenchmarkRelayerHubScan(b *testing.B) {
	for _, perEdge := range []int{1, 2} {
		b.Run(fmt.Sprintf("relayers-per-edge-%d", perEdge), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := topo.Scenario{
					Name:      "bench-hub",
					Topology:  topo.Hub(3),
					Deploy:    topo.DeployConfig{RelayersPerEdge: perEdge},
					EdgeRates: map[int]int{0: 10, 1: 10, 2: 10},
					Windows:   3,
				}
				res, err := s.Run(int64(17 + i))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Total[metrics.StatusCompleted]), "completed")
			}
		})
	}
}

// BenchmarkStateCommit measures block commits in full-proof mode: the
// incremental path folds only the block's dirty keys into cached leaf
// hashes, versus the old full merkle.NewTree rebuild over the state map.
func BenchmarkStateCommit(b *testing.B) {
	const preload, dirtyPerBlock = 4096, 32
	seedState := func(s *app.State) {
		for i := 0; i < preload; i++ {
			s.Set(fmt.Sprintf("key/%05d", i), []byte(fmt.Sprintf("val-%d", i)))
		}
		s.CommitTx()
		s.Commit(1)
	}
	b.Run("incremental", func(b *testing.B) {
		s := app.NewState(true)
		seedState(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for d := 0; d < dirtyPerBlock; d++ {
				s.Set(fmt.Sprintf("key/%05d", (i*dirtyPerBlock+d*7)%preload), []byte(fmt.Sprintf("v%d", i)))
			}
			s.CommitTx()
			s.Commit(int64(i + 2))
		}
	})
	b.Run("full-rebuild", func(b *testing.B) {
		// The pre-refactor cost model: rebuild the whole tree per commit.
		kv := make(map[string][]byte, preload)
		for i := 0; i < preload; i++ {
			kv[fmt.Sprintf("key/%05d", i)] = []byte(fmt.Sprintf("val-%d", i))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for d := 0; d < dirtyPerBlock; d++ {
				kv[fmt.Sprintf("key/%05d", (i*dirtyPerBlock+d*7)%preload)] = []byte(fmt.Sprintf("v%d", i))
			}
			if merkle.NewTree(kv).Root() == (merkle.Hash{}) {
				b.Fatal("zero root")
			}
		}
	})
	b.Run("incremental-with-inserts", func(b *testing.B) {
		s := app.NewState(true)
		seedState(s)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A block's realistic mix: new packet commitments plus balance
			// updates.
			for d := 0; d < dirtyPerBlock/2; d++ {
				s.Set(fmt.Sprintf("commitments/%d/%d", i, d), []byte("c"))
				s.Set(fmt.Sprintf("key/%05d", (i+d*11)%preload), []byte(fmt.Sprintf("v%d", i)))
			}
			s.CommitTx()
			s.Commit(int64(i + 2))
		}
	})
}

// BenchmarkTracerOverhead measures the observability tax on a full topo
// scenario: `disabled` is the production default (nil Obs — the tracer
// hooks must compile down to nil checks), `enabled` runs the same
// workload with span recording, metric sampling and flush-time packet
// synthesis attached. The CI bench job tracks both; enabled should sit
// within ~5% of disabled, disabled within noise of the pre-obs baseline.
func BenchmarkTracerOverhead(b *testing.B) {
	run := func(b *testing.B, instrument bool) {
		for i := 0; i < b.N; i++ {
			sc, err := experiments.BuildTopologyScenario(benchOpts, "hub:3", 5, false)
			if err != nil {
				b.Fatal(err)
			}
			var o *obs.Obs
			if instrument {
				o = obs.New()
				sc.Deploy.Obs = o
			}
			res, err := sc.Run(42)
			if err != nil {
				b.Fatal(err)
			}
			if res.Total[metrics.StatusCompleted] == 0 {
				b.Fatal("no transfers completed")
			}
			b.ReportMetric(res.Throughput, "TFPS")
			if instrument {
				if o.Tracer.Len() == 0 {
					b.Fatal("instrumented run recorded no events")
				}
				b.ReportMetric(float64(o.Tracer.Len()), "events")
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { run(b, false) })
	b.Run("enabled", func(b *testing.B) { run(b, true) })
}

var _ = metrics.StatusCompleted

// BenchmarkMeshSerialVsParallel runs one full-mesh scenario per
// iteration in both runner modes and reports wall time plus speedup.
// The conservative partitioned runner is byte-identical to serial (the
// experiment errors out otherwise), so the only degree of freedom is
// wall clock: on a multi-core host speedup approaches
// min(chains, workers, cores); on a single core it pins near 1.0 and
// CI tracks it for regressions in synchronization overhead.
func BenchmarkMeshSerialVsParallel(b *testing.B) {
	for _, chains := range []int{4, 8} {
		b.Run(fmt.Sprintf("chains-%d", chains), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.MeshScale(experiments.Options{
					Seeds: 1, Windows: 2, Validators: 5, Rates: []int{3},
				}, []int{chains}, chains)
				if err != nil {
					b.Fatal(err)
				}
				row := res.Rows[0]
				if !row.FingerprintEqual {
					b.Fatal("parallel run diverged from serial")
				}
				b.ReportMetric(row.SerialWallSec*1e3, "serial-ms")
				b.ReportMetric(row.ParallelWallSec*1e3, "parallel-ms")
				b.ReportMetric(row.Speedup, "speedup")
			}
		})
	}
}
