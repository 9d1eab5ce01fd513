package faultnet

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rex/internal/core"
	"rex/internal/gossip"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
	"rex/internal/runtime"
	"rex/internal/topology"
)

// mockEndpoint records sends.
type mockEndpoint struct {
	mu    sync.Mutex
	sends []mockSend
	inbox chan runtime.Envelope
	done  chan struct{}
}

type mockSend struct {
	to   int
	data []byte
}

func newMock() *mockEndpoint {
	return &mockEndpoint{inbox: make(chan runtime.Envelope, 64), done: make(chan struct{})}
}

func (m *mockEndpoint) Send(to int, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sends = append(m.sends, mockSend{to, append([]byte(nil), data...)})
	return nil
}
func (m *mockEndpoint) Inbox() <-chan runtime.Envelope { return m.inbox }
func (m *mockEndpoint) Done() <-chan struct{}          { return m.done }
func (m *mockEndpoint) Close() error                   { close(m.done); return nil }

func (m *mockEndpoint) frames() []mockSend {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]mockSend(nil), m.sends...)
}

func gossipFrame(b byte) []byte { return []byte{runtime.FrameKindGossipDelta, b} }

func TestWrapDropsAndCounts(t *testing.T) {
	inner := newMock()
	var log Log
	sc := &Scenario{Seed: 1, Drop: 1}
	ep := Wrap(inner, 0, sc, &log)
	for i := 0; i < 3; i++ {
		if err := ep.Send(1, gossipFrame(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(inner.frames()); n != 0 {
		t.Fatalf("%d frames leaked through a 100%% drop", n)
	}
	dropped, delayed := ep.(runtime.FaultReporter).FaultCounts()
	if dropped != 3 || delayed != 0 {
		t.Fatalf("counts %d/%d", dropped, delayed)
	}
	evs := log.Events()
	if len(evs) != 3 || evs[0].Kind != KindDrop || evs[2].Epoch != 2 {
		t.Fatalf("log %v", evs)
	}
}

// TestWrapAttestationPassthrough: bootstrap traffic is never faulted.
func TestWrapAttestationPassthrough(t *testing.T) {
	inner := newMock()
	sc := &Scenario{Seed: 1, Drop: 1, Duplicate: 1}
	ep := Wrap(inner, 0, sc, nil)
	attest := []byte{runtime.FrameKindAttest, 9, 9}
	if err := ep.Send(1, attest); err != nil {
		t.Fatal(err)
	}
	fr := inner.frames()
	if len(fr) != 1 || fr[0].data[0] != runtime.FrameKindAttest {
		t.Fatalf("attestation frames faulted: %v", fr)
	}
}

func TestWrapDuplicates(t *testing.T) {
	inner := newMock()
	sc := &Scenario{Seed: 1, Duplicate: 1}
	ep := Wrap(inner, 0, sc, nil)
	ep.Send(1, gossipFrame(7))
	fr := inner.frames()
	if len(fr) != 2 || fr[0].data[1] != 7 || fr[1].data[1] != 7 {
		t.Fatalf("duplicate produced %v", fr)
	}
}

// TestWrapReorderSwapsAdjacentFrames: with reorder on every frame, frame k
// is stashed and released right after frame k+1 — and Close flushes a
// stash that never found a successor.
func TestWrapReorderSwapsAdjacentFrames(t *testing.T) {
	inner := newMock()
	sc := &Scenario{Seed: 1, Reorder: 1} // Epochs unset: no final-frame guard
	ep := Wrap(inner, 0, sc, nil)
	for i := byte(0); i < 4; i++ {
		ep.Send(1, gossipFrame(i))
	}
	got := inner.frames()
	want := []byte{1, 0, 3, 2}
	if len(got) != len(want) {
		t.Fatalf("%d frames sent, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].data[1] != w {
			t.Fatalf("frame order %v, want %v", got, want)
		}
	}
	// A trailing odd frame stays stashed until Close.
	ep.Send(1, gossipFrame(4))
	if len(inner.frames()) != 4 {
		t.Fatal("stash leaked before Close")
	}
	ep.Close()
	fr := inner.frames()
	if len(fr) != 5 || fr[4].data[1] != 4 {
		t.Fatalf("Close did not flush the stash: %v", fr)
	}
}

// TestWrapDelayHoldsFrame: the delayed frame still arrives (after the
// scheduled hold) and is counted.
func TestWrapDelayHoldsFrame(t *testing.T) {
	inner := newMock()
	sc := &Scenario{Seed: 1, Delay: 1, DelayMs: 20}
	ep := Wrap(inner, 0, sc, nil)
	start := time.Now()
	ep.Send(1, gossipFrame(1))
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("delay not applied (send took %v)", d)
	}
	if len(inner.frames()) != 1 {
		t.Fatal("delayed frame lost")
	}
	_, delayed := ep.(runtime.FaultReporter).FaultCounts()
	if delayed != 1 {
		t.Fatalf("delayed count %d", delayed)
	}
}

// clusterWorkload builds a small live-cluster configuration (mirrors the
// runtime package's test helper; duplicated to avoid exporting test glue).
func clusterWorkload(t testing.TB, n, epochs int) runtime.ClusterConfig {
	t.Helper()
	spec := movielens.Latest().Scaled(0.05)
	spec.Seed = 21
	ds := movielens.Generate(spec)
	rng := rand.New(rand.NewSource(21))
	tr, te := ds.SplitPerUser(0.7, rng)
	trainParts, err := tr.PartitionUsersAcross(n, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	testParts, err := te.PartitionUsersAcross(n, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mf.DefaultConfig()
	nodes := make([]*core.Node, n)
	for i := range nodes {
		nodes[i] = core.NewNode(core.Config{
			ID: i, Mode: core.DataSharing, Algo: gossip.DPSGD,
			StepsPerEpoch: 100, SharePoints: 30, Seed: 21,
		}, mf.New(mcfg), trainParts[i], testParts[i])
	}
	return runtime.ClusterConfig{
		Graph: topology.FullyConnected(n), Nodes: nodes, Epochs: epochs,
		NewModel: func() model.Model { return mf.New(mcfg) },
	}
}

// TestHealedPartitionRestoresGossip is the regression for the old runner
// behavior that treated any peer loss as permanent: under a scheduled
// split-brain with zero grace, survivors drop their cross-partition
// neighbors exactly once, probes restore gossip after the heal, and every
// loss is matched by a rejoin — PeersLost never overcounts and no peer
// stays lost.
func TestHealedPartitionRestoresGossip(t *testing.T) {
	const n, epochs = 4, 10
	// The universal 15ms delay paces rounds so the post-heal probe window
	// is wide; without it the decoupled halves can finish their remaining
	// sub-millisecond rounds before the first probe lands.
	sc := &Scenario{
		Name: "regression-split", Seed: 42, Epochs: epochs,
		Delay: 1, DelayMs: 15,
		Partitions: []Partition{{From: 2, Until: 4, Groups: [][]int{{0, 1}, {2, 3}}}},
		Rejoin:     true, TimeoutMs: 300, // GraceRounds 0: first miss drops
	}
	cfg := clusterWorkload(t, n, epochs)
	var log Log
	sc.ApplyCluster(&cfg, &log)
	stats, err := runtime.RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	const n, epochs = 4, 6
	sc := &Scenario{
		Name: "grace-split", Seed: 43, Epochs: epochs,
		Partitions:  []Partition{{From: 2, Until: 3, Groups: [][]int{{0, 1}, {2, 3}}}},
		GraceRounds: 5, Rejoin: true, TimeoutMs: 300,
	}
	cfg := clusterWorkload(t, n, epochs)
	var log Log
	sc.ApplyCluster(&cfg, &log)
	stats, err := runtime.RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
	const n, epochs = 4, 7
	sc := &Scenario{
		Name: "churn-live", Seed: 44, Epochs: epochs,
		Churn: []Churn{{Node: 3, Leave: 2, Rejoin: 4}},
	}
	cfg := clusterWorkload(t, n, epochs)
	var log Log
	sc.ApplyCluster(&cfg, &log)
	stats, err := runtime.RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
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
