package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/gossip"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/topology"
)

// stageSumConfig builds a perfectly symmetric 2-node, 1-epoch
// data-sharing workload: equal partition and test-set sizes mean both
// nodes have identical merge/train/share/test stage times, so the
// per-alive-node Stage means ARE the per-node values and the epoch clock
// can be reconstructed from them exactly.
func stageSumConfig() Config {
	rng := rand.New(rand.NewSource(4))
	part := func(userBase int) (train, test []dataset.Rating) {
		for u := 0; u < 10; u++ {
			for it := 0; it < 10; it++ {
				r := dataset.Rating{
					User:  uint32(userBase + u),
					Item:  uint32(it),
					Value: float32(rng.Intn(9)+1) / 2,
				}
				if it < 7 {
					train = append(train, r)
				} else {
					test = append(test, r)
				}
			}
		}
		return train, test
	}
	tr0, te0 := part(0)
	tr1, te1 := part(10)
	mcfg := mf.DefaultConfig()
	cp := MFCompute(mcfg.K)
	// Inflate serialization cost so the share stage is far from negligible
	// next to the others.
	cp.SerializeSecPerByte *= 1000
	return Config{
		Graph: topology.FullyConnected(2),
		Algo:  gossip.DPSGD, Mode: core.DataSharing,
		Epochs: 1, StepsPerEpoch: 1, SharePoints: 40,
		NewModel:  func(int) model.Model { return mf.New(mcfg) },
		Train:     [][]dataset.Rating{tr0, tr1},
		Test:      [][]dataset.Rating{te0, te1},
		Compute:   cp,
		TestEvery: 1,
		Seed:      12,
	}
}

// TestEpochCostIsStageSum pins the epoch cost model: the four stages
// serialize, so an epoch costs merge + train + share + test.
func TestEpochCostIsStageSum(t *testing.T) {
	res, err := Run(stageSumConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := res.Series[0].Stage
	if st.Train <= 0 || st.Share <= 0 || st.Test <= 0 {
		t.Fatalf("degenerate stages %+v", st)
	}
	want := st.Merge + st.Train + st.Share + st.Test
	if diff := math.Abs(res.TotalTimeMax - want); diff > 1e-12*want {
		t.Fatalf("TotalTimeMax = %.12g, want %.12g (stages %+v)", res.TotalTimeMax, want, st)
	}
}

// TestMessageBuffersSizedFromGraph pins where the per-node message buffers
// get their capacity: newEngine gives each of the four one entry per
// neighbor, and on a static fault-free topology no epoch outgrows that.
func TestMessageBuffersSizedFromGraph(t *testing.T) {
	for _, algo := range []gossip.Algo{gossip.DPSGD, gossip.RMW} {
		cfg := smallConfig(t, core.DataSharing, algo)
		cfg.Epochs, cfg.TestEvery, cfg.Net = 4, 1, DefaultNet()
		eng := newEngine(cfg, cfg.Graph.N())
		defer eng.pool.close()
		check := func(when string) {
			t.Helper()
			for i := 0; i < eng.n; i++ {
				d := cfg.Graph.Degree(i)
				if cap(eng.inbox[i]) != d || cap(eng.results[i].out) != d ||
					cap(eng.payloadBuf[i]) != d || cap(eng.targetBuf[i]) != d {
					t.Fatalf("%v %s: node %d of degree %d has capacities inbox %d, out %d, payloads %d, targets %d",
						algo, when, i, d, cap(eng.inbox[i]), cap(eng.results[i].out), cap(eng.payloadBuf[i]), cap(eng.targetBuf[i]))
				}
			}
		}
		check("after newEngine")
		for e := 0; e < cfg.Epochs; e++ {
			eng.runEpoch(e)
			check(fmt.Sprintf("after epoch %d", e))
			if got := len(eng.inbox[0]); got != cfg.Graph.Degree(0) {
				t.Fatalf("%v: node 0 holds %d messages after epoch %d, want one per neighbor", algo, got, e)
			}
		}
	}
}
