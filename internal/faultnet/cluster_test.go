package faultnet_test

import (
	"math"
	"testing"

	"rex/internal/faultnet"
	"rex/internal/faultnet/scenariotest"
	"rex/internal/runtime"
)

// runScenario runs sc for its epochs on the conformance workload's
// in-process cluster, through scenariotest.RunCluster, and returns the
// stats and the fault log every node wrote to.
func runScenario(t *testing.T, sc *faultnet.Scenario) ([]*runtime.Stats, *faultnet.Log) {
	t.Helper()
	w := scenariotest.NewWorkload(t)
	var log faultnet.Log
	stats, err := scenariotest.RunCluster(w.Configs(t, runtime.NewChanNet(w.Graph.N()), false), sc.Epochs, sc, &log)
	if err != nil {
		t.Fatal(err)
	}
	return stats, &log
}

// TestHealedPartitionRestoresGossip is the regression for the old runner
// behavior that treated any peer loss as permanent: under a scheduled
// split-brain with zero grace, survivors drop their cross-partition
// neighbors exactly once, probes restore gossip after the heal, and every
// loss is matched by a rejoin — PeersLost never overcounts and no peer
// stays lost.
func TestHealedPartitionRestoresGossip(t *testing.T) {
	const epochs = 10
	// The universal 15ms delay paces rounds so the post-heal probe window
	// is wide; without it the decoupled halves can finish their remaining
	// sub-millisecond rounds before the first probe lands.
	sc := &faultnet.Scenario{
		Name: "regression-split", Seed: 42, Epochs: epochs,
		Delay: 1, DelayMs: 15,
		Partitions: []faultnet.Partition{{From: 2, Until: 4, Groups: [][]int{{0, 1}, {2, 3}}}},
		Rejoin:     true, TimeoutMs: 300, // GraceRounds 0: first miss drops
	}
	stats, log := runScenario(t, sc)
	totalLost := 0
	for i, s := range stats {
		if len(s.RMSE) != epochs {
			t.Fatalf("node %d ran %d epochs", i, len(s.RMSE))
		}
		if math.IsNaN(s.FinalRMSE) || s.FinalRMSE <= 0 || s.FinalRMSE > 3 {
			t.Fatalf("node %d did not converge: %v", i, s.FinalRMSE)
		}
		// No overcounting: a 2|2 split gives each node 2 cross neighbors,
		// each droppable at most once per partition episode.
		if s.PeersLost > 2 {
			t.Fatalf("node %d overcounted losses: %d", i, s.PeersLost)
		}
		// Everything lost during the split must have been healed.
		if s.PeersLost != s.Rejoins {
			t.Fatalf("node %d: %d losses but %d rejoins", i, s.PeersLost, s.Rejoins)
		}
		totalLost += s.PeersLost
	}
	if totalLost == 0 {
		t.Fatal("partition caused no detected losses; regression not exercised")
	}
	if c := log.Counts(); c.PartitionDrops == 0 {
		t.Fatalf("no partition drops logged: %+v", c)
	}
}

// TestScenarioGraceRidesOutPartition: with grace at least as long as the
// split, the failure detector drops nobody and the run stays clean.
func TestScenarioGraceRidesOutPartition(t *testing.T) {
	const epochs = 6
	sc := &faultnet.Scenario{
		Name: "grace-split", Seed: 43, Epochs: epochs,
		Partitions:  []faultnet.Partition{{From: 2, Until: 3, Groups: [][]int{{0, 1}, {2, 3}}}},
		GraceRounds: 5, Rejoin: true, TimeoutMs: 300,
	}
	stats, _ := runScenario(t, sc)
	for i, s := range stats {
		if s.PeersLost != 0 || s.Rejoins != 0 {
			t.Fatalf("node %d: lost %d rejoined %d under covering grace", i, s.PeersLost, s.Rejoins)
		}
		if s.DroppedFrames == 0 && i < 2 {
			// Nodes 0/1 send cross frames at epoch 2 which the wrapper
			// cuts; the counter must surface that.
			t.Fatalf("node %d reported no dropped frames", i)
		}
	}
}

// TestOracleChurnLiveCluster: a node scheduled away for two epochs sits
// them out (NaN in its trajectory), neighbors never miss a round (no
// timeouts, no losses), and everyone converges after the rejoin.
func TestOracleChurnLiveCluster(t *testing.T) {
	const epochs = 7
	sc := &faultnet.Scenario{
		Name: "churn-live", Seed: 44, Epochs: epochs,
		Churn: []faultnet.Churn{{Node: 3, Leave: 2, Rejoin: 4}},
	}
	stats, _ := runScenario(t, sc)
	for i, s := range stats {
		if s.PeersLost != 0 {
			t.Fatalf("node %d lost peers under oracle churn", i)
		}
		if s.FinalRMSE <= 0 || s.FinalRMSE > 3 {
			t.Fatalf("node %d rmse %v", i, s.FinalRMSE)
		}
	}
	for e := 2; e < 4; e++ {
		if !math.IsNaN(stats[3].RMSE[e]) {
			t.Fatalf("churned node has RMSE %v at absent epoch %d", stats[3].RMSE[e], e)
		}
	}
	if math.IsNaN(stats[3].RMSE[4]) || math.IsNaN(stats[3].RMSE[epochs-1]) {
		t.Fatal("churned node did not resume after rejoin")
	}
}
