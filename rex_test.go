// Package rex_test holds the module's cross-package end-to-end checks: each
// test wires datasets, models, topologies and an execution layer together
// the way a library user would. The module root has no library package; the
// test names keep their TestFacade prefix from the public facade these
// checks used to go through.
package rex_test

import (
	"math/rand"
	"testing"

	"rex/internal/baseline"
	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/faultnet/scenariotest"
	"rex/internal/gossip"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
	"rex/internal/nn"
	"rex/internal/runtime"
	"rex/internal/sim"
	"rex/internal/topology"
)

// buildWorkload prepares a small partitioned dataset.
func buildWorkload(t testing.TB, nodes int, seed int64) (train, test [][]dataset.Rating) {
	t.Helper()
	spec := movielens.Latest().Scaled(0.06)
	spec.Seed = seed
	ds := movielens.Generate(spec)
	tr, te := ds.SplitPerUser(0.7, rand.New(rand.NewSource(seed)))
	trainParts, err := tr.PartitionUsersAcross(nodes, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	testParts, err := te.PartitionUsersAcross(nodes, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return trainParts, testParts
}

func TestFacadeSimulateREXvsMS(t *testing.T) {
	const n = 12
	train, test := buildWorkload(t, n, 31)
	g := topology.SmallWorld(n, 4, 0.05, rand.New(rand.NewSource(31)))
	mcfg := mf.DefaultConfig()
	run := func(mode core.Mode) *sim.Result {
		res, err := sim.Run(sim.Config{
			Graph: g, Algo: gossip.DPSGD, Mode: mode,
			Epochs: 40, StepsPerEpoch: 150, SharePoints: 60,
			NewModel: func(int) model.Model { return mf.New(mcfg) },
			Train:    train, Test: test,
			Compute: sim.MFCompute(mcfg.K), Seed: 31,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ms := run(core.ModelSharing)
	ds := run(core.DataSharing)
	if ds.BytesPerNode >= ms.BytesPerNode {
		t.Fatalf("REX moved more bytes than MS: %.0f vs %.0f", ds.BytesPerNode, ms.BytesPerNode)
	}
	if ds.TotalTimeMean >= ms.TotalTimeMean {
		t.Fatalf("REX slower than MS: %.2f vs %.2f", ds.TotalTimeMean, ms.TotalTimeMean)
	}
}

func TestFacadeLiveCluster(t *testing.T) {
	const n = 4
	w := scenariotest.NewWorkloadSized(t, n, 0.06, 33)
	w.Node.StepsPerEpoch, w.Node.SharePoints = 80, 20
	stats, err := scenariotest.RunCluster(w.Configs(t, runtime.NewChanNet(n), true), 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range stats {
		if s.Attested != n-1 {
			t.Fatalf("node %d attested %d", i, s.Attested)
		}
	}
}

func TestFacadeCentralizedBaseline(t *testing.T) {
	spec := movielens.Latest().Scaled(0.05)
	spec.Seed = 35
	ds := movielens.Generate(spec)
	tr, te := ds.SplitPerUser(0.7, rand.New(rand.NewSource(35)))
	res := baseline.Run(mf.New(mf.DefaultConfig()), tr.Ratings, te.Ratings, 8, len(tr.Ratings), 35)
	if res.FinalRMSE >= res.RMSE[0] {
		t.Fatal("baseline did not improve")
	}
}

func TestFacadeDNN(t *testing.T) {
	cfg := nn.DefaultConfig(20, 50)
	cfg.EmbDim = 4
	cfg.Hidden = []int{8, 6}
	m := nn.NewNet(cfg)
	if m.ParamCount() <= 0 {
		t.Fatal("empty DNN")
	}
	if p := m.Predict(0, 0); p < -10 || p > 10 {
		t.Fatalf("implausible prediction %v", p)
	}
}

func TestFacadeTopologies(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	if g := topology.SmallWorld(40, 6, 0.03, rng); g.N() != 40 {
		t.Fatal("small world size")
	}
	if g := topology.ErdosRenyi(40, 0.1, rng); g.N() != 40 {
		t.Fatal("ER size")
	}
	if g := topology.FullyConnected(8); g.NumEdges() != 28 {
		t.Fatal("complete graph")
	}
}

func TestFacadeStore(t *testing.T) {
	s := dataset.NewStore([]dataset.Rating{{User: 1, Item: 2, Value: 3}})
	if s.Len() != 1 {
		t.Fatal("store len")
	}
	if added := s.Append([]dataset.Rating{{User: 1, Item: 2, Value: 3}}); added != 0 {
		t.Fatal("duplicate added")
	}
}
