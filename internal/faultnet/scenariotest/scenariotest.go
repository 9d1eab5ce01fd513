// Package scenariotest is the chaos-scenario conformance harness: it runs
// a faultnet.Scenario against every execution backend REX has — the
// deterministic simulator (internal/sim), an in-process ChanNet cluster,
// and a real sharded TCP cluster (two shards bridged over loopback) —
// and gives the conformance suite one shape to assert over:
//
//   - replay determinism: the same (seed, spec) must reproduce bit-identical
//     per-epoch RMSE trajectories and identical fault-event logs, run after
//     run, on every backend;
//   - convergence envelopes: surviving nodes must reach a final RMSE within
//     a scenario-specific factor of the fault-free run;
//   - liveness: every run must complete under a deadline — partitions,
//     churn and reordering must never deadlock the per-peer lanes.
package scenariotest

import (
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/faultnet"
	"rex/internal/gossip"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
	"rex/internal/runtime"
	"rex/internal/sim"
	"rex/internal/topology"
)

// Nodes is the conformance workload size; the canned scenarios' partition
// groups and churn entries reference ids 0..Nodes-1.
const Nodes = 4

// Workload is the shared 4-node fully-connected D-PSGD REX workload every
// backend runs.
type Workload struct {
	Train, Test [][]dataset.Rating
	Graph       *topology.Graph
	MCfg        mf.Config
}

// NewWorkload builds the workload deterministically from a fixed dataset
// seed (independent of the scenario seed, which only drives faults).
func NewWorkload(t testing.TB) *Workload {
	t.Helper()
	spec := movielens.Latest().Scaled(0.05)
	spec.Seed = 21
	ds := movielens.Generate(spec)
	rng := rand.New(rand.NewSource(21))
	tr, te := ds.SplitPerUser(0.7, rng)
	trainParts, err := tr.PartitionUsersAcross(Nodes, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	testParts, err := te.PartitionUsersAcross(Nodes, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	return &Workload{
		Train: trainParts, Test: testParts,
		Graph: topology.FullyConnected(Nodes),
		MCfg:  mf.DefaultConfig(),
	}
}

func (w *Workload) nodes() []*core.Node {
	nodes := make([]*core.Node, Nodes)
	for i := range nodes {
		nodes[i] = core.NewNode(core.Config{
			ID: i, Mode: core.DataSharing, Algo: gossip.DPSGD,
			StepsPerEpoch: 100, SharePoints: 30, Seed: 21,
		}, mf.New(w.MCfg), w.Train[i], w.Test[i])
	}
	return nodes
}

// Run is one backend execution: per-node per-epoch RMSE (the simulator
// reports a single mean-RMSE row), the canonical fault-event log, and the
// per-node stats for live backends.
type Run struct {
	RMSE   [][]float64
	Events []faultnet.Event
	Stats  []*runtime.Stats
}

// FinalMeanRMSE averages the last finite RMSE of every trajectory.
func (r *Run) FinalMeanRMSE() float64 {
	sum, cnt := 0.0, 0
	for _, row := range r.RMSE {
		for e := len(row) - 1; e >= 0; e-- {
			if !math.IsNaN(row[e]) {
				sum += row[e]
				cnt++
				break
			}
		}
	}
	if cnt == 0 {
		return math.NaN()
	}
	return sum / float64(cnt)
}

// RunSim executes the scenario on the simulator backend.
func RunSim(t testing.TB, w *Workload, sc *faultnet.Scenario) *Run {
	t.Helper()
	res, err := sim.Run(sim.Config{
		Graph: w.Graph, Algo: gossip.DPSGD, Mode: core.DataSharing,
		Epochs: sc.Epochs, StepsPerEpoch: 100, SharePoints: 30,
		NewModel: func(int) model.Model { return mf.New(w.MCfg) },
		Train:    w.Train, Test: w.Test,
		Compute:  sim.MFCompute(w.MCfg.K),
		Scenario: sc,
		Seed:     21,
	})
	if err != nil {
		t.Fatal(err)
	}
	series := make([]float64, len(res.Series))
	for e, row := range res.Series {
		series[e] = row.MeanRMSE
	}
	return &Run{RMSE: [][]float64{series}, Events: res.FaultLog}
}

// RunChanNet executes the scenario on an in-process ChanNet cluster.
func RunChanNet(t testing.TB, w *Workload, sc *faultnet.Scenario, secure bool) *Run {
	t.Helper()
	cfg := runtime.ClusterConfig{
		Graph: w.Graph, Nodes: w.nodes(), Epochs: sc.Epochs,
		Secure: secure,
		// Collateral comes from crypto/rand: it feeds only key material,
		// never the learning, so replay determinism is unaffected.
		NewModel: func() model.Model { return mf.New(w.MCfg) },
	}
	var log faultnet.Log
	sc.ApplyCluster(&cfg, &log)
	var stats []*runtime.Stats
	deadline(t, "ChanNet cluster", func() {
		var err error
		stats, err = runtime.RunCluster(cfg)
		if err != nil {
			t.Error(err)
		}
	})
	return liveRun(stats, &log)
}

// RunShardTCP executes the scenario as two real TCP-bridged shard
// processes' worth of RunCluster shards inside this test binary — the same
// transport path two `rexd -shard` processes take, with one shared fault
// log for assertions.
func RunShardTCP(t testing.TB, w *Workload, sc *faultnet.Scenario) *Run {
	t.Helper()
	const shards = 2
	addrs := freePorts(t, shards)
	nodes := w.nodes()
	var log faultnet.Log
	merged := make([]*runtime.Stats, Nodes)
	deadline(t, "sharded TCP cluster", func() {
		type result struct {
			stats []*runtime.Stats
			err   error
		}
		results := make(chan result, shards)
		for s := 0; s < shards; s++ {
			go func(s int) {
				cfg := runtime.ClusterConfig{
					Graph: w.Graph, Nodes: nodes, Epochs: sc.Epochs,
					NewModel: func() model.Model { return mf.New(w.MCfg) },
					Shard:    s, ShardAddrs: addrs,
				}
				sc.ApplyCluster(&cfg, &log)
				stats, err := runtime.RunCluster(cfg)
				results <- result{stats, err}
			}(s)
		}
		for s := 0; s < shards; s++ {
			res := <-results
			if res.err != nil {
				t.Error(res.err)
				continue
			}
			for id, st := range res.stats {
				if st != nil {
					merged[id] = st
				}
			}
		}
	})
	return liveRun(merged, &log)
}

func liveRun(stats []*runtime.Stats, log *faultnet.Log) *Run {
	run := &Run{Stats: stats, Events: log.Events()}
	for _, st := range stats {
		if st == nil {
			run.RMSE = append(run.RMSE, nil)
			continue
		}
		run.RMSE = append(run.RMSE, append([]float64(nil), st.RMSE...))
	}
	return run
}

// deadline runs fn, failing the test if it has not returned in time — the
// liveness assertion: no fault schedule may deadlock a backend.
func deadline(t testing.TB, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		t.Fatalf("%s deadlocked (no completion in 120s)", what)
	}
}

// freePorts reserves n distinct localhost TCP ports (closed before
// returning; a parallel process could in principle steal one).
func freePorts(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// SameTrajectories asserts two runs match bit for bit: every node's RMSE
// at every epoch (NaN gaps from churn included) and the full fault log.
func SameTrajectories(t testing.TB, what string, a, b *Run) {
	t.Helper()
	if len(a.RMSE) != len(b.RMSE) {
		t.Fatalf("%s: %d vs %d trajectories", what, len(a.RMSE), len(b.RMSE))
	}
	for i := range a.RMSE {
		if len(a.RMSE[i]) != len(b.RMSE[i]) {
			t.Fatalf("%s node %d: %d vs %d epochs", what, i, len(a.RMSE[i]), len(b.RMSE[i]))
		}
		for e := range a.RMSE[i] {
			if math.Float64bits(a.RMSE[i][e]) != math.Float64bits(b.RMSE[i][e]) {
				t.Fatalf("%s node %d epoch %d: %v != %v (replay not bit-identical)",
					what, i, e, a.RMSE[i][e], b.RMSE[i][e])
			}
		}
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("%s: fault logs differ: %d vs %d events\n%v\n%v",
			what, len(a.Events), len(b.Events), a.Events, b.Events)
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			t.Fatalf("%s: fault log diverged at %d: %v != %v", what, i, a.Events[i], b.Events[i])
		}
	}
}
