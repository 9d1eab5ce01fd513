// Benchmarks regenerating every table and figure of the paper's evaluation
// (scaled-down workloads; `go run ./cmd/rexbench -exp <id> -full` runs
// paper scale), plus ablations of the design choices DESIGN.md calls out.
package rex

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"rex/internal/core"
	"rex/internal/experiments"
	"rex/internal/gossip"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
	"rex/internal/runtime"
	"rex/internal/sim"
	"rex/internal/topology"
)

// benchExperiment runs one paper artifact per iteration. The first
// iteration executes the scenario; later iterations may hit the package's
// memo cache, so b.N>1 timings measure the harness, not the simulation —
// artifact regeneration, not throughput, is the point of these benches.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		if err := e.Run(experiments.Params{Seed: 1, Out: io.Discard}); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// --- ablation benches: the design choices DESIGN.md §5 calls out ---

// ablationWorkload builds a small REX-ready network shared by ablations.
func ablationWorkload(b *testing.B, seed int64) (sim.Config, int) {
	b.Helper()
	spec := movielens.Latest().Scaled(0.08)
	spec.Seed = seed
	ds := movielens.Generate(spec)
	rng := rand.New(rand.NewSource(seed))
	tr, te := ds.SplitPerUser(0.7, rng)
	const n = 20
	trainParts, err := tr.PartitionUsersAcross(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	testParts, err := te.PartitionUsersAcross(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	mcfg := mf.DefaultConfig()
	cfg := sim.Config{
		Graph: topology.SmallWorld(n, 6, 0.03, rand.New(rand.NewSource(seed))),
		Algo:  gossip.DPSGD, Mode: core.DataSharing,
		Epochs: 50, StepsPerEpoch: 200, SharePoints: 80,
		NewModel: func(int) model.Model { return mf.New(mcfg) },
		Train:    trainParts, Test: testParts,
		Compute: sim.MFCompute(mcfg.K), Seed: seed,
	}
	return cfg, n
}

// BenchmarkAblationMergeWeights compares D-PSGD model merging with
// Metropolis–Hastings weights (the paper's §III-C2 choice) against naive
// uniform averaging on an irregular graph.
func BenchmarkAblationMergeWeights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, _ := ablationWorkload(b, 7)
		cfg.Mode = core.ModelSharing
		mh, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg2, _ := ablationWorkload(b, 7)
		cfg2.Mode = core.ModelSharing
		cfg2.UniformMerge = true
		uni, err := sim.Run(cfg2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mh.FinalRMSE, "rmse-MH")
		b.ReportMetric(uni.FinalRMSE, "rmse-uniform")
	}
}

// BenchmarkAblationFixedSteps contrasts the paper's fixed SGD budget per
// epoch (§III-E) with naive full-pass epochs whose duration grows with the
// raw-data store.
func BenchmarkAblationFixedSteps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fixedCfg, _ := ablationWorkload(b, 11)
		fixed, err := sim.Run(fixedCfg)
		if err != nil {
			b.Fatal(err)
		}
		fullCfg, _ := ablationWorkload(b, 11)
		fullCfg.StepsPerEpoch = 0 // full pass
		full, err := sim.Run(fullCfg)
		if err != nil {
			b.Fatal(err)
		}
		// Fixed steps: constant epoch duration. Full pass: last epochs are
		// much slower than the first because the store has grown.
		fFirst := fixed.Series[1].Stage.Train
		fLast := fixed.Series[len(fixed.Series)-1].Stage.Train
		gFirst := full.Series[1].Stage.Train
		gLast := full.Series[len(full.Series)-1].Stage.Train
		b.ReportMetric(fLast/fFirst, "fixed-growth")
		b.ReportMetric(gLast/gFirst, "fullpass-growth")
	}
}

// BenchmarkAblationShareParallel measures the §III-D "future work"
// optimization: overlapping raw-data sharing with training.
func BenchmarkAblationShareParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seqCfg, _ := ablationWorkload(b, 13)
		seq, err := sim.Run(seqCfg)
		if err != nil {
			b.Fatal(err)
		}
		parCfg, _ := ablationWorkload(b, 13)
		parCfg.ShareParallel = true
		par, err := sim.Run(parCfg)
		if err != nil {
			b.Fatal(err)
		}
		if par.TotalTimeMean > seq.TotalTimeMean {
			b.Fatalf("parallel share slower: %v > %v", par.TotalTimeMean, seq.TotalTimeMean)
		}
		b.ReportMetric(seq.TotalTimeMean/par.TotalTimeMean, "speedup")
	}
}

// BenchmarkAblationStatelessSampling quantifies the duplicate rate of the
// paper's stateless raw-data sampling (§III-E): nodes may resend points,
// and the receiver's dedup absorbs them.
func BenchmarkAblationStatelessSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, _ := ablationWorkload(b, 17)
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

func BenchmarkGraphSmallWorld(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		g := topology.SmallWorld(610, 6, 0.03, rng)
		if !topology.IsConnected(g) {
			b.Fatal("disconnected small world")
		}
	}
}

// Example-style smoke check keeping the facade honest.
func BenchmarkFacadeSimulate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := MovieLensLatest().Scaled(0.05)
		spec.Seed = 3
		ds := GenerateMovieLens(spec)
		rng := rand.New(rand.NewSource(3))
		tr, te := ds.SplitPerUser(0.7, rng)
		const n = 12
		trainParts, err := tr.PartitionUsersAcross(n, rand.New(rand.NewSource(3)))
		if err != nil {
			b.Fatal(err)
		}
		testParts, err := te.PartitionUsersAcross(n, rand.New(rand.NewSource(3)))
		if err != nil {
			b.Fatal(err)
		}
		mcfg := DefaultMFConfig()
		res, err := Simulate(SimConfig{
			Graph: FullyConnected(n), Algo: DPSGD, Mode: DataSharing,
			Epochs: 20, StepsPerEpoch: 100, SharePoints: 50,
			NewModel: func(int) Model { return NewMF(mcfg) },
			Train:    trainParts, Test: testParts,
			Compute: MFCompute(mcfg.K), Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.FinalRMSE <= 0 {
			b.Fatal("no RMSE")
		}
	}
	if b.N > 0 {
		fmt.Fprint(io.Discard, "ok")
	}
}

// --- extension experiments (paper §IV-E discussion + future work) ---

func BenchmarkExtNonIID(b *testing.B)      { benchExperiment(b, "ext-noniid") }
func BenchmarkExtChurn(b *testing.B)       { benchExperiment(b, "ext-churn") }
func BenchmarkExtPoison(b *testing.B)      { benchExperiment(b, "ext-poison") }
func BenchmarkExtCompression(b *testing.B) { benchExperiment(b, "ext-compression") }
func BenchmarkExtKNN(b *testing.B)         { benchExperiment(b, "ext-knn") }

func BenchmarkExtDynamic(b *testing.B) { benchExperiment(b, "ext-dynamic") }

// --- parallel engine bench: wall-clock effect of the worker pool
// (sim.Config.Workers); bit-equality across worker counts is pinned by
// internal/sim/determinism_test.go ---

// parallelWorkload is the acceptance workload for the parallel engine: a
// 64-node small-world graph running 50 epochs of D-PSGD data sharing.
func parallelWorkload(b *testing.B, workers int) sim.Config {
	b.Helper()
	const seed = 21
	spec := movielens.Latest().Scaled(0.15)
	spec.Seed = seed
	ds := movielens.Generate(spec)
	rng := rand.New(rand.NewSource(seed))
	tr, te := ds.SplitPerUser(0.7, rng)
	const n = 64
	trainParts, err := tr.PartitionUsersAcross(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	testParts, err := te.PartitionUsersAcross(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	mcfg := mf.DefaultConfig()
	return sim.Config{
		Graph: topology.SmallWorld(n, 6, 0.03, rand.New(rand.NewSource(seed))),
		Algo:  gossip.DPSGD, Mode: core.DataSharing,
		Epochs: 50, StepsPerEpoch: 300, SharePoints: 100,
		Workers:  workers,
		NewModel: func(int) model.Model { return mf.New(mcfg) },
		Train:    trainParts, Test: testParts,
		Compute: sim.MFCompute(mcfg.K), Seed: seed,
	}
}

// BenchmarkSimWorkers measures the wall-clock effect of the worker pool on
// the 64-node / 50-epoch D-PSGD workload; compare the workers=1 and
// workers=N per-op times for the speedup. Workload construction happens
// outside the timed region so only sim.Run is measured (Run never mutates
// the shared Train/Test partitions or the graph, so one Config serves all
// iterations).
func BenchmarkSimWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8, 0} {
		name := fmt.Sprintf("workers=%d", w)
		if w == 0 {
			name = "workers=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			cfg := parallelWorkload(b, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireBatch measures the TCP lane's frame coalescing: one op
// bursts a 16-frame wave (the lane batch cap) at a single peer and waits
// for all deliveries. Because the sends enqueue far faster than the lane
// drains, the writer coalesces the queue into vectored writes — compare
// MB/s here against the one-frame-per-write round trip the ledger reports
// as runtime.tcp_roundtrip_us_16k.
func BenchmarkWireBatch(b *testing.B) {
	const burst = 16
	recv, err := runtime.NewTCPNet(1, "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	acks := make(chan struct{}, 2*burst)
	go func() {
		for range recv.Inbox() {
			acks <- struct{}{}
		}
	}()
	hub, err := runtime.NewTCPNet(0, "127.0.0.1:0", map[int]string{1: recv.Addr().String()})
	if err != nil {
		b.Fatal(err)
	}
	defer hub.Close()

	frame := make([]byte, 4<<10) // ~ a delta share frame after packing
	b.SetBytes(int64(burst * len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f := 0; f < burst; f++ {
			if err := hub.Send(1, frame); err != nil {
				b.Fatal(err)
			}
		}
		for f := 0; f < burst; f++ {
			<-acks
		}
	}
}
