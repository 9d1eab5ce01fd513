package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"rex/internal/core"
	"rex/internal/gossip"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
	"rex/internal/topology"
)

// --- ablation benches: the design choices DESIGN.md §5 calls out ---

// ablationWorkload builds a small REX-ready network shared by ablations.
func ablationWorkload(b *testing.B, seed int64) Config {
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
	return Config{
		Graph: topology.SmallWorld(n, 6, 0.03, rand.New(rand.NewSource(seed))),
		Algo:  gossip.DPSGD, Mode: core.DataSharing,
		Epochs: 50, StepsPerEpoch: 200, SharePoints: 80,
		NewModel: func(int) model.Model { return mf.New(mcfg) },
		Train:    trainParts, Test: testParts,
		Compute: MFCompute(mcfg.K), Seed: seed,
	}
}

// BenchmarkAblationFixedSteps contrasts the paper's fixed SGD budget per
// epoch (§III-E) with naive full-pass epochs whose duration grows with the
// raw-data store.
func BenchmarkAblationFixedSteps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fixed, err := Run(ablationWorkload(b, 11))
		if err != nil {
			b.Fatal(err)
		}
		fullCfg := ablationWorkload(b, 11)
		fullCfg.StepsPerEpoch = 0 // full pass
		full, err := Run(fullCfg)
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

// BenchmarkAblationStatelessSampling quantifies the duplicate rate of the
// paper's stateless raw-data sampling (§III-E): nodes may resend points,
// and the receiver's dedup absorbs them.
func BenchmarkAblationStatelessSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Run(ablationWorkload(b, 17)); err != nil {
			b.Fatal(err)
		}
	}
}

// --- parallel engine bench: wall-clock effect of the worker pool
// (Config.Workers); bit-equality across worker counts is pinned by
// determinism_test.go ---

// parallelWorkload is the acceptance workload for the parallel engine: a
// 64-node small-world graph running 50 epochs of D-PSGD data sharing.
func parallelWorkload(b *testing.B, workers int) Config {
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
	return Config{
		Graph: topology.SmallWorld(n, 6, 0.03, rand.New(rand.NewSource(seed))),
		Algo:  gossip.DPSGD, Mode: core.DataSharing,
		Epochs: 50, StepsPerEpoch: 300, SharePoints: 100,
		Workers:  workers,
		NewModel: func(int) model.Model { return mf.New(mcfg) },
		Train:    trainParts, Test: testParts,
		Compute: MFCompute(mcfg.K), Seed: seed,
	}
}

// BenchmarkSimWorkers measures the wall-clock effect of the worker pool on
// the 64-node / 50-epoch D-PSGD workload; compare the workers=1 and
// workers=N per-op times for the speedup. Workload construction happens
// outside the timed region so only Run is measured (Run never mutates
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
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
