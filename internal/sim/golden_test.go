package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/faultnet"
	"rex/internal/gossip"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/nn"
	"rex/internal/topology"
)

// goldenParts builds deterministic per-node train/test partitions without
// the movielens generator, so the hashes below depend only on this package
// and the model implementations.
func goldenParts(seed int64, nodes, perNode int) (train, test [][]dataset.Rating) {
	rng := rand.New(rand.NewSource(seed))
	train = make([][]dataset.Rating, nodes)
	test = make([][]dataset.Rating, nodes)
	for i := 0; i < nodes; i++ {
		mk := func(n int) []dataset.Rating {
			out := make([]dataset.Rating, n)
			for j := range out {
				out[j] = dataset.Rating{
					User:  uint32(rng.Intn(nodes * 3)),
					Item:  uint32(rng.Intn(nodes * 7)),
					Value: float32(rng.Intn(9)+1) / 2,
				}
			}
			return out
		}
		train[i] = mk(perNode)
		test[i] = mk(perNode / 3)
	}
	return train, test
}

// resultDigest hashes every externally observable number a Result carries:
// the full per-epoch series (RMSE, clocks, traffic, stage times), the run
// aggregates, the heap accounting and the fault counters. Two Results with
// equal digests went through bit-identical trajectories AND bit-identical
// cost/heap accounting.
func resultDigest(res *Result) string {
	h := sha256.New()
	le := binary.LittleEndian
	put := func(f float64) {
		var b [8]byte
		le.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	puti := func(v int64) {
		var b [8]byte
		le.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, e := range res.Series {
		puti(int64(e.Epoch))
		put(e.MeanRMSE)
		put(e.TimeMean)
		put(e.TimeMax)
		put(e.BytesPerNode)
		put(e.EpochBytesPerNode)
		put(e.Stage.Merge)
		put(e.Stage.Train)
		put(e.Stage.Share)
		put(e.Stage.Test)
	}
	put(res.FinalRMSE)
	put(res.TotalTimeMean)
	put(res.TotalTimeMax)
	put(res.BytesPerNode)
	puti(res.PeakHeapBytes)
	put(res.MeanHeapBytes)
	puti(int64(res.Attestations))
	puti(int64(res.FailedNodes))
	puti(int64(res.Faults.Dropped + res.Faults.Delayed + res.Faults.Duplicated +
		res.Faults.Reordered + res.Faults.PartitionDrops + res.Faults.Leaves + res.Faults.Rejoins))
	puti(int64(len(res.FaultLog)))
	return hex.EncodeToString(h.Sum(nil))
}

// TestGoldenSimTrajectories pins the simulator's end-to-end results —
// learning trajectories, virtual-time cost model, traffic and heap
// accounting — as SHA-256 digests recorded from the dense-table,
// materialized-topology implementation. Structural rework of the engine
// (sparse model tables, pooled epoch state, streamed topologies) must
// reproduce every digest bit for bit; a mismatch is a results change and
// must be owned loudly.
func TestGoldenSimTrajectories(t *testing.T) {
	graph := topology.SmallWorld(24, 4, 0.2, rand.New(rand.NewSource(5)))
	trainMF, testMF := goldenParts(11, 24, 40)
	mfModel := func(id int) model.Model { return mf.New(mf.DefaultConfig()) }

	base := Config{
		Graph:         graph,
		Epochs:        30,
		StepsPerEpoch: 60,
		SharePoints:   20,
		NewModel:      mfModel,
		Train:         trainMF,
		Test:          testMF,
		TestEvery:     1,
		Seed:          9,
	}

	cases := []struct {
		name string
		mut  func(c *Config)
		want string
	}{
		{"ds-dpsgd", func(c *Config) { c.Mode = core.DataSharing; c.Algo = gossip.DPSGD }, goldenDSDPSGD},
		{"ds-rmw", func(c *Config) { c.Mode = core.DataSharing; c.Algo = gossip.RMW }, goldenDSRMW},
		{"ms-dpsgd", func(c *Config) { c.Mode = core.ModelSharing; c.Algo = gossip.DPSGD }, goldenMSDPSGD},
		{"ms-rmw", func(c *Config) { c.Mode = core.ModelSharing; c.Algo = gossip.RMW }, goldenMSRMW},
		{"ms-dpsgd-faults", func(c *Config) {
			c.Mode = core.ModelSharing
			c.Algo = gossip.DPSGD
			c.FailAt = map[int]int{3: 5}
			c.Byzantine = map[int]bool{2: true}
		}, goldenMSFaults},
		{"ds-dpsgd-sgx", func(c *Config) {
			c.Mode = core.DataSharing
			c.Algo = gossip.DPSGD
			c.SGX = true
			c.AttestSetupSec = 0.25
			c.Heap = PaperHeapFactors()
		}, goldenDSSGX},
		{"ds-dpsgd-scenario", func(c *Config) {
			c.Mode = core.DataSharing
			c.Algo = gossip.DPSGD
			c.Scenario = &faultnet.Scenario{
				Name: "golden", Seed: 77,
				Drop: 0.08, Delay: 0.1, DelayMs: 5, DelayJitterMs: 35,
				Duplicate: 0.05, Reorder: 0.05, TimeoutMs: 50,
			}
		}, goldenDSScenario},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultDigest(res); got != tc.want {
				t.Errorf("sim trajectory diverged:\n got %s\nwant %s", got, tc.want)
			}
		})
	}

	t.Run("nn-ms-dpsgd", func(t *testing.T) {
		trainNN, testNN := goldenParts(13, 8, 24)
		ncfg := nn.Config{
			NumUsers: 24, NumItems: 56, EmbDim: 4, Hidden: []int{8},
			DropoutEmb: 0.02, DropoutHidden: 0.15,
			LearningRate: 1e-3, WeightDecay: 1e-5, BatchSize: 8, Seed: 3,
		}
		cfg := Config{
			Graph:         topology.SmallWorld(8, 2, 0.3, rand.New(rand.NewSource(6))),
			Mode:          core.ModelSharing,
			Algo:          gossip.DPSGD,
			Epochs:        8,
			StepsPerEpoch: 4,
			NewModel:      func(id int) model.Model { return nn.NewNet(ncfg) },
			Train:         trainNN,
			Test:          testNN,
			TestEvery:     1,
			Seed:          17,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultDigest(res); got != goldenNNMS {
			t.Errorf("nn sim trajectory diverged:\n got %s\nwant %s", got, goldenNNMS)
		}
	})
}

// Golden digests recorded from the dense-table implementation (PR 7 tree),
// before the sparse-table/pooled-state/streamed-topology rework.
const (
	goldenDSDPSGD    = "85a353ce993af57607f3c6fdd447acf1a13d537769889cb57baf04c6f36f431a"
	goldenDSRMW      = "4c2f945b693f29ef0418f5877a2659900cad09b3c04ebc1e8cca90027c746a35"
	goldenMSDPSGD    = "ff65f9970377bfde5b8ccb5aa3a9fb621f2da8e36ef3105fe9135bcabd799626"
	goldenMSRMW      = "d1009e7f76c6e66141f276ba2fc0f922a3b5878469cea2aaedc9f3e25d986e40"
	goldenMSFaults   = "157494160852d0e424e4031e4f2c30da85b82290a52dac80b755a553fe927dcb"
	goldenDSSGX      = "c587f6e28b971f8acb1fa54d07249f1829c253394d0bb32b028a614f7a87d145"
	goldenDSScenario = "fe88f624784706dd319ba11b8ad55db4f2d7da77d37a650fdba0156550ea51bf"
	goldenNNMS       = "9d88cfbec69cece258e5168f86b4ef93c583d0541a2ab18334da683da70eef29"
)
