package main

import (
	"time"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/gossip"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/sim"
	"rex/internal/topology"
)

// simCfg sizes sim-10k: the BENCH_scale.json shape, one user per node.
type simCfg struct {
	nodes, epochs int
	probeCalls    int
}

var sim10k = struct{ full, smoke simCfg }{
	full:  simCfg{nodes: 10000, epochs: 4, probeCalls: 100},
	smoke: simCfg{nodes: 300, epochs: 4, probeCalls: 20},
}

const (
	simTrainPerNode = 24
	simTestPerNode  = 8
	simItemSpace    = 1 << 15
	simSteps        = 30
	simSharePoints  = 10
)

// simRatings synthesizes node i's data: one user (id == node) rating
// items from a bounded catalog, a pure splitmix64 function of (seed, i) —
// the generator behind BENCH_scale.json, so node count is the only
// variable. Like the MovieLens corpus it is generated from corpusSeed.
func simRatings(seed int64, i int) (train, test []dataset.Rating) {
	mix := func(x uint64) uint64 {
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		return x
	}
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(i)
	all := make([]dataset.Rating, 0, simTrainPerNode+simTestPerNode)
	for k := 0; k < simTrainPerNode+simTestPerNode; k++ {
		h = mix(h + uint64(k) + 1)
		all = append(all, dataset.Rating{
			User: uint32(i), Item: uint32(h % simItemSpace),
			Value: float32(h>>32%10+1) / 2, // half stars in [0.5, 5.0]
		})
	}
	return all[:simTrainPerNode], all[simTrainPerNode:]
}

// runSim executes one repetition of sim-10k: sim.Run over a streamed
// small-world graph of one-user nodes, D-PSGD raw-data sharing, one
// worker. Epoch boundaries come from sim.Config.AfterEpoch.
func runSim(e *env) (*rep, error) {
	cfg := sim10k.full
	if e.smoke {
		cfg = sim10k.smoke
	}
	r := &rep{e2e: map[string]float64{}}
	lt := newLapTimer(e.gc)
	defer lt.stop()
	root := e.tr.begin("repetition", -1)
	defer e.tr.end(root)
	setup := e.tr.begin("setup", root)

	n := cfg.nodes
	sp := e.tr.begin("simRatings", setup)
	train := make([][]dataset.Rating, n)
	test := make([][]dataset.Rating, n)
	for i := range train {
		train[i], test[i] = simRatings(corpusSeed, i)
	}
	e.tr.end(sp)
	lt.mark()

	var w window
	var firstEpoch time.Duration
	simStart := time.Now()
	epochSpan := e.tr.begin("sim.epoch", setup)
	mcfg := mf.DefaultConfig()
	res, err := sim.Run(sim.Config{
		// Topology and node RNGs are pinned: they decide whose ratings node 0
		// ends up holding, the serving probe queries those users in rotation,
		// and a call costs 2.6 or 3.1-3.5 ms depending on the user, so the
		// median call moved by 15 % from seed to seed.
		Graph: topology.NewSmallWorldStream(n, 6, 0.03, corpusSeed+0xC0FFEE),
		Algo:  gossip.DPSGD, Mode: core.DataSharing,
		Epochs: cfg.epochs, StepsPerEpoch: simSteps, SharePoints: simSharePoints,
		Workers:   1,
		KeepState: true,
		NewModel:  func(int) model.Model { return mf.New(mcfg) },
		Train:     train, Test: test,
		Compute: sim.MFCompute(mcfg.K),
		Seed:    corpusSeed,
		AfterEpoch: func(ep int) {
			e.tr.end(epochSpan)
			lt.mark()
			switch ep {
			case 0:
				e.tr.end(setup)
				firstEpoch = time.Since(simStart)
				w.open()
				r.setupLaps = lt.take()
			case cfg.epochs - 1:
				r.windowLaps = lt.take()
				w.close(lt) // the engine and every node are still resident
			}
			if ep < cfg.epochs-1 {
				epochSpan = e.tr.begin("sim.epoch", root)
			}
		},
	})
	r.attempted += n * cfg.epochs
	if err != nil {
		r.violate("sim.Run: %v", err)
		return r, nil
	}
	r.e2e["final_rmse"] = res.FinalRMSE
	r.e2e["wire_kb_per_epoch"] = kb(res.BytesPerNode*float64(n)) / float64(cfg.epochs)
	if e.tr != nil {
		r.stage = map[string]sample{
			"sim.first_epoch_ms":  {value: float64(firstEpoch.Nanoseconds()) / 1e6, unit: "ms", n: 1},
			"sim.steady_epoch_ms": {value: sum(r.windowLaps) / float64(cfg.epochs-1), unit: "ms", n: cfg.epochs - 1},
			"sim.bytes_per_user":  {value: w.live / float64(n), unit: "B", n: n},
		}
	}

	r.state = &nodeState{
		model: res.Models[0].(*mf.Model), ratings: res.Stores[0],
		test: test[0], numItems: simItemSpace, mode: core.DataSharing,
	}
	r.recLaps = serveProbe(e, r, lt, root, r.state, cfg.probeCalls)
	r.record(&w, lt, cfg.epochs-1)
	return r, nil
}
