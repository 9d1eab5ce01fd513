// Package scenariotest runs live clusters for tests, and is the
// chaos-scenario conformance harness built on them.
//
// RunCluster is the one way a test runs a whole live cluster: one
// runtime.Config per node, each node on its own runtime.Engine, and a
// scenario applied through faultnet.Scenario.ApplyRun, the path rexd
// takes. The harness runs a faultnet.Scenario against every execution
// backend REX has — the deterministic simulator (internal/sim), an
// in-process ChanNet cluster, and a TCP cluster of one runtime.TCPNet per
// node on loopback, the shape rexd runs — and gives the conformance suite
// one shape to assert over:
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
	"crypto/rand"
	"fmt"
	"math"
	mrand "math/rand"
	"net"
	"slices"
	"sync"
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

// Workload is a fully-connected live workload: a synthetic MovieLens
// corpus partitioned by user across the nodes, and the protocol
// configuration the nodes share.
type Workload struct {
	Train, Test [][]dataset.Rating
	Graph       *topology.Graph
	MCfg        mf.Config
	// Node is every node's protocol configuration; Nodes sets the ID.
	Node core.Config
}

// NewWorkload builds the conformance workload, Nodes nodes, from a fixed
// dataset seed (independent of the scenario seed, which only drives
// faults).
func NewWorkload(t testing.TB) *Workload {
	return NewWorkloadSized(t, Nodes, 0.05, 21)
}

// NewWorkloadSized builds an n-node workload on a MovieLens-Latest corpus
// of the given scale. The corpus, the 70/30 per-user split and the user
// partitions all draw from seed, as every rexd process of a cluster
// derives its own from -scale and -seed. The nodes run D-PSGD raw-data
// sharing, 100 SGD steps and 30 shared points an epoch, seeded with seed;
// edit Node for another protocol.
func NewWorkloadSized(t testing.TB, n int, scale float64, seed int64) *Workload {
	t.Helper()
	spec := movielens.Latest().Scaled(scale)
	spec.Seed = seed
	ds := movielens.Generate(spec)
	tr, te := ds.SplitPerUser(0.7, mrand.New(mrand.NewSource(seed)))
	trainParts, err := tr.PartitionUsersAcross(n, mrand.New(mrand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	testParts, err := te.PartitionUsersAcross(n, mrand.New(mrand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return &Workload{
		Train: trainParts, Test: testParts,
		Graph: topology.FullyConnected(n),
		MCfg:  mf.DefaultConfig(),
		Node: core.Config{
			Mode: core.DataSharing, Algo: gossip.DPSGD,
			StepsPerEpoch: 100, SharePoints: 30, Seed: seed,
		},
	}
}

// Nodes builds fresh nodes, node i on partition i.
func (w *Workload) Nodes() []*core.Node {
	nodes := make([]*core.Node, w.Graph.N())
	for i := range nodes {
		c := w.Node
		c.ID = i
		nodes[i] = core.NewNode(c, w.NewModel(), w.Train[i], w.Test[i])
	}
	return nodes
}

// NewModel returns an empty model of the workload's configuration.
func (w *Workload) NewModel() model.Model { return mf.New(w.MCfg) }

// Configs returns one runtime.Config per node, fresh nodes each call: node
// i on eps[i], with its graph neighbors. Secure nodes attest with
// runtime.Collateral drawn from crypto/rand — it feeds only key material,
// never the learning — and runtime.EnclaveMeasurement.
func (w *Workload) Configs(t testing.TB, eps []runtime.Endpoint, secure bool) []runtime.Config {
	t.Helper()
	nodes := w.Nodes()
	cfgs := make([]runtime.Config, len(nodes))
	for i, nd := range nodes {
		cfgs[i] = runtime.Config{
			Node: nd, Endpoint: eps[i], Neighbors: w.Graph.Neighbors(i),
			NewModel: w.NewModel,
		}
	}
	if secure {
		inf, platforms, err := runtime.Collateral(len(nodes), rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			cfgs[i].Secure = true
			cfgs[i].Platform, cfgs[i].Infra = platforms[i], inf
			cfgs[i].Measurement = runtime.EnclaveMeasurement
		}
	}
	return cfgs
}

// RunNode runs one node as a batch job: epochs epochs on a fresh
// runtime.Engine, then Stop. It returns after the node's own last epoch;
// peers may still be finishing theirs, so the caller closes the endpoint
// once they have.
func RunNode(cfg runtime.Config, epochs int) (*runtime.Stats, error) {
	e, err := runtime.NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.Start(); err != nil {
		return nil, err
	}
	defer e.Stop()
	for k := 0; k < epochs; k++ {
		if _, err := e.Step(); err != nil {
			return e.Stats(), err
		}
	}
	return e.Stats(), nil
}

// RunCluster runs a live cluster of one node per config, all at once,
// each for epochs epochs (RunNode), and closes every endpoint once all are
// done. A non-nil sc is applied to a copy of every config first
// (faultnet.Scenario.ApplyRun), all nodes logging to log. Stats come back
// in config order.
func RunCluster(cfgs []runtime.Config, epochs int, sc *faultnet.Scenario, log *faultnet.Log) ([]*runtime.Stats, error) {
	cfgs = slices.Clone(cfgs)
	if sc != nil {
		for i := range cfgs {
			sc.ApplyRun(&cfgs[i], log)
		}
	}
	stats := make([]*runtime.Stats, len(cfgs))
	errs := make([]error, len(cfgs))
	var wg sync.WaitGroup
	for i := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stats[i], errs[i] = RunNode(cfgs[i], epochs)
		}()
	}
	wg.Wait()
	for _, cfg := range cfgs {
		cfg.Endpoint.Close()
	}
	for i, err := range errs {
		if err != nil {
			return stats, fmt.Errorf("node %d: %w", i, err)
		}
	}
	return stats, nil
}

// TCPMesh starts one runtime.TCPNet per node on its own loopback port,
// each dialing the others at theirs: n nodes in the shape rexd runs them,
// one TCPNet per process. Cleanup closes them.
func TCPMesh(t testing.TB, n int) []runtime.Endpoint {
	t.Helper()
	addrs := freePorts(t, n)
	eps := make([]runtime.Endpoint, n)
	for i := range eps {
		peers := make(map[int]string, n-1)
		for j, a := range addrs {
			if j != i {
				peers[j] = a
			}
		}
		tn, err := runtime.NewTCPNet(i, addrs[i], peers)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tn.Close() })
		eps[i] = tn
	}
	return eps
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
		Graph: w.Graph, Algo: w.Node.Algo, Mode: w.Node.Mode,
		Epochs: sc.Epochs, StepsPerEpoch: w.Node.StepsPerEpoch, SharePoints: w.Node.SharePoints,
		NewModel: func(int) model.Model { return w.NewModel() },
		Train:    w.Train, Test: w.Test,
		Compute:  sim.MFCompute(w.MCfg.K),
		Scenario: sc,
		Seed:     w.Node.Seed,
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
	return runLive(t, "ChanNet cluster", w.Configs(t, runtime.NewChanNet(w.Graph.N()), secure), sc)
}

// RunTCP executes the scenario on a TCP cluster of one runtime.TCPNet per
// node on loopback (TCPMesh), with one shared fault log for assertions.
func RunTCP(t testing.TB, w *Workload, sc *faultnet.Scenario) *Run {
	t.Helper()
	return runLive(t, "TCP cluster", w.Configs(t, TCPMesh(t, w.Graph.N()), false), sc)
}

// runLive runs the scenario's epochs on cfgs under the liveness deadline.
func runLive(t testing.TB, what string, cfgs []runtime.Config, sc *faultnet.Scenario) *Run {
	t.Helper()
	var log faultnet.Log
	var stats []*runtime.Stats
	deadline(t, what, func() {
		var err error
		if stats, err = RunCluster(cfgs, sc.Epochs, sc, &log); err != nil {
			t.Error(err)
		}
	})
	run := &Run{Stats: stats, Events: log.Events(), RMSE: make([][]float64, len(stats))}
	for i, st := range stats {
		if st != nil { // nil only when the node failed to start
			run.RMSE[i] = st.RMSE
		}
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
