package experiments

import (
	"fmt"
	"math/rand"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/gossip"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
	"rex/internal/sim"
	"rex/internal/topology"
)

// scale factors for the non-Full runs.
// latestScale shrinks the MovieLens-Latest-shaped workload for non-Full
// runs: ~91 users, 1350 items, 15k ratings.
const latestScale = 0.15

// latestSpec returns the MovieLens-Latest-shaped generator spec.
func latestSpec(full bool, seed int64) movielens.Spec {
	s := movielens.Latest()
	if !full {
		s = s.Scaled(latestScale)
	}
	s.Seed = seed
	return s
}

// bigSpec returns the truncated-25M-shaped generator spec. The scaled
// variant keeps the 25M dataset's defining property relative to Latest —
// more users, more items, more ratings — rather than scaling uniformly.
func bigSpec(full bool, seed int64) movielens.Spec {
	s := movielens.TwentyFiveMCapped()
	if !full {
		s.Users, s.Items, s.Ratings = 300, 2400, 60_000
	}
	s.Seed = seed
	return s
}

// epochs returns the epoch budget: the paper's 400 at full scale.
func epochs(full bool) int {
	if full {
		return 400
	}
	return 240
}

// sharePoints is the raw-data budget per epoch (paper: 300 for MF).
func sharePoints(full bool) int {
	if full {
		return 300
	}
	return 150
}

// workload is a generated and partitioned dataset ready for sim.Run.
type workload struct {
	ds    *dataset.Dataset
	train [][]dataset.Rating
	test  [][]dataset.Rating
	nodes int
	// allTrain/allTest are the unpartitioned splits for the centralized
	// baseline curve.
	allTrain []dataset.Rating
	allTest  []dataset.Rating
}

// oneNodePerUser builds the §IV-B-a scenario: node i holds exactly user
// i's ratings (70/30 per-user split).
func oneNodePerUser(spec movielens.Spec, seed int64) (*workload, error) {
	ds := movielens.Generate(spec)
	rng := rand.New(rand.NewSource(seed))
	tr, te := ds.SplitPerUser(0.7, rng)
	trainParts, err := tr.PartitionPerUser()
	if err != nil {
		return nil, fmt.Errorf("partitioning train: %w", err)
	}
	testParts, err := te.PartitionPerUser()
	if err != nil {
		return nil, fmt.Errorf("partitioning test: %w", err)
	}
	return &workload{
		ds: ds, train: trainParts, test: testParts, nodes: ds.NumUsers,
		allTrain: tr.Ratings, allTest: te.Ratings,
	}, nil
}

// multiUser builds the §IV-B-b scenario: users dealt whole across n nodes.
func multiUser(spec movielens.Spec, n int, seed int64) (*workload, error) {
	ds := movielens.Generate(spec)
	rng := rand.New(rand.NewSource(seed))
	tr, te := ds.SplitPerUser(0.7, rng)
	// The same user order must govern both partitions so a node's test
	// ratings belong to its own users; reuse one shuffled assignment.
	assignRng := rand.New(rand.NewSource(seed + 1))
	trainParts, err := tr.PartitionUsersAcross(n, assignRng)
	if err != nil {
		return nil, fmt.Errorf("partitioning train: %w", err)
	}
	// Rebuild the same assignment for test by re-seeding.
	assignRng = rand.New(rand.NewSource(seed + 1))
	testParts, err := te.PartitionUsersAcross(n, assignRng)
	if err != nil {
		return nil, fmt.Errorf("partitioning test: %w", err)
	}
	return &workload{
		ds: ds, train: trainParts, test: testParts, nodes: n,
		allTrain: tr.Ratings, allTest: te.Ratings,
	}, nil
}

// setup identifies one panel of Figs 1/2/4: an algorithm and a topology.
type setup struct {
	algo gossip.Algo
	topo string // "SW" or "ER"
}

func (s setup) String() string { return fmt.Sprintf("%s, %s", s.algo, s.topo) }

// fourSetups are the paper's four panels, in its column order.
var fourSetups = []setup{
	{gossip.RMW, "SW"},
	{gossip.RMW, "ER"},
	{gossip.DPSGD, "SW"},
	{gossip.DPSGD, "ER"},
}

// buildGraph instantiates the §IV-A2 topologies: small world with 6 close
// connections and 3% far-fetched probability, or Erdős–Rényi with p=5%.
func buildGraph(topo string, n int, seed int64) (*topology.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	switch topo {
	case "SW":
		return topology.SmallWorld(n, 6, 0.03, rng), nil
	case "ER":
		return topology.ErdosRenyi(n, 0.05, rng), nil
	case "full":
		return topology.FullyConnected(n), nil
	default:
		return nil, fmt.Errorf("unknown topology %q", topo)
	}
}

// mfModelFactory returns a constructor giving every node an identical MF
// model (same seed — attested enclaves share initial state).
func mfModelFactory(cfg mf.Config) func(int) model.Model {
	return func(int) model.Model { return mf.New(cfg) }
}

// simConfig assembles the common parts of a simulated MF run.
func simConfig(w *workload, g *topology.Graph, algo gossip.Algo, mode core.Mode, p Params, mcfg mf.Config) sim.Config {
	return sim.Config{
		Graph:         g,
		Algo:          algo,
		Mode:          mode,
		Epochs:        epochs(p.Full),
		StepsPerEpoch: 300,
		SharePoints:   sharePoints(p.Full),
		NewModel:      mfModelFactory(mcfg),
		Train:         w.train,
		Test:          w.test,
		Net:           sim.DefaultNet(),
		Compute:       sim.MFCompute(mcfg.K),
		TestEvery:     testCadence(p.Full),
		Scenario:      p.Scenario,
		Seed:          p.Seed,
	}
}

// testCadence evaluates RMSE every epoch in scaled runs and every 5 epochs
// at paper scale (610 nodes x 400 epochs x full test would dominate).
func testCadence(full bool) int {
	if full {
		return 5
	}
	return 1
}
