package sim_test

import (
	"fmt"
	"math/rand"

	"rex/internal/core"
	"rex/internal/gossip"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
	"rex/internal/sim"
	"rex/internal/topology"
)

// ExampleRun is the smallest end-to-end REX simulation: generate a
// MovieLens-shaped dataset, split and partition it across nodes, and run
// D-PSGD with raw-data sharing on a fully connected graph.
func ExampleRun() {
	spec := movielens.Latest().Scaled(0.05)
	spec.Seed = 1
	ds := movielens.Generate(spec)
	train, test := ds.SplitPerUser(0.7, rand.New(rand.NewSource(1)))
	const n = 8
	trainParts, _ := train.PartitionUsersAcross(n, rand.New(rand.NewSource(1)))
	testParts, _ := test.PartitionUsersAcross(n, rand.New(rand.NewSource(1)))
	mcfg := mf.DefaultConfig()

	res, err := sim.Run(sim.Config{
		Graph: topology.FullyConnected(n), Algo: gossip.DPSGD, Mode: core.DataSharing,
		Epochs: 10, StepsPerEpoch: 100, SharePoints: 50,
		NewModel: func(int) model.Model { return mf.New(mcfg) },
		Train:    trainParts, Test: testParts,
		Compute: sim.MFCompute(mcfg.K), Seed: 1,
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("epochs simulated: %d\n", len(res.Series))
	fmt.Printf("improved: %v\n", res.FinalRMSE < res.Series[0].MeanRMSE)
	// Output:
	// epochs simulated: 10
	// improved: true
}
