package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"rex/internal/dataset"
	"rex/internal/gossip"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/topology"
)

func mkNode(t *testing.T, mode Mode, algo gossip.Algo, train []dataset.Rating) *Node {
	t.Helper()
	cfg := Config{ID: 0, Mode: mode, Algo: algo, StepsPerEpoch: 100, SharePoints: 5, Seed: 1}
	return NewNode(cfg, mf.New(mf.DefaultConfig()), train, []dataset.Rating{{User: 0, Item: 1, Value: 3}})
}

func someRatings(n int, seed int64) []dataset.Rating {
	rng := rand.New(rand.NewSource(seed))
	out := make([]dataset.Rating, n)
	for i := range out {
		out[i] = dataset.Rating{
			User:  uint32(rng.Intn(20)),
			Item:  uint32(i), // distinct items: no dedup collisions
			Value: float32(rng.Intn(10)+1) / 2,
		}
	}
	return out
}

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
	}{{"ms", ModelSharing}, {"MS", ModelSharing}, {"model", ModelSharing},
		{"rex", DataSharing}, {"REX", DataSharing}, {"ds", DataSharing}} {
		got, err := ParseMode(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseMode(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
	if ModelSharing.String() != "MS" || DataSharing.String() != "REX" {
		t.Fatal("mode names drifted")
	}
}

func TestTrainFixedSteps(t *testing.T) {
	n := mkNode(t, DataSharing, gossip.DPSGD, someRatings(50, 1))
	if steps := n.Train(); steps != 100 {
		t.Fatalf("steps = %d want 100", steps)
	}
}

func TestTrainFullPass(t *testing.T) {
	cfg := Config{ID: 0, Mode: DataSharing, Algo: gossip.DPSGD, StepsPerEpoch: 0, SharePoints: 5, Seed: 1}
	n := NewNode(cfg, mf.New(mf.DefaultConfig()), someRatings(37, 2), nil)
	if steps := n.Train(); steps != 37 {
		t.Fatalf("full pass ran %d steps, want 37", steps)
	}
}

func TestTrainEmptyStore(t *testing.T) {
	n := mkNode(t, DataSharing, gossip.DPSGD, nil)
	if steps := n.Train(); steps != 0 {
		t.Fatalf("trained on empty store: %d steps", steps)
	}
}

func TestMergeDataSharing(t *testing.T) {
	n := mkNode(t, DataSharing, gossip.DPSGD, someRatings(10, 3))
	alien := someRatings(10, 3) // identical: all duplicates
	fresh := []dataset.Rating{{User: 99, Item: 99, Value: 5}}
	st := n.Merge([]Payload{
		{From: 1, Degree: 2, Data: alien},
		{From: 2, Degree: 2, Data: fresh},
	}, 3)
	if st.PointsAppended != 1 {
		t.Fatalf("appended %d, want 1", st.PointsAppended)
	}
	if st.PointsDuplicate != 10 {
		t.Fatalf("duplicates %d, want 10", st.PointsDuplicate)
	}
	if !n.Store.Contains(99, 99) {
		t.Fatal("fresh point not stored")
	}
}

func TestMergeModelSharingDPSGD(t *testing.T) {
	n := mkNode(t, ModelSharing, gossip.DPSGD, someRatings(20, 4))
	n.Train()
	alien := mf.New(mf.DefaultConfig())
	alien.Train(someRatings(20, 5), 300, rand.New(rand.NewSource(6)))
	before := n.Model.ParamCount()
	st := n.Merge([]Payload{{From: 1, Degree: 4, Model: alien}}, 2)
	if st.ModelsMerged != 1 {
		t.Fatalf("merged %d models", st.ModelsMerged)
	}
	if n.Model.ParamCount() < before {
		t.Fatal("merge lost parameters")
	}
}

func TestMergeEmptyPayloads(t *testing.T) {
	n := mkNode(t, ModelSharing, gossip.RMW, someRatings(10, 7))
	st := n.Merge([]Payload{{From: 1, Degree: 1}}, 1) // empty notification
	if st.ModelsMerged != 0 || st.PointsAppended != 0 {
		t.Fatalf("empty payload did something: %+v", st)
	}
	if st := n.Merge(nil, 1); st.ModelsMerged != 0 {
		t.Fatal("nil payloads merged models")
	}
}

func TestMergeRMWPairwise(t *testing.T) {
	n := mkNode(t, ModelSharing, gossip.RMW, someRatings(20, 8))
	n.Train()
	a := mf.New(mf.DefaultConfig())
	a.Train(someRatings(20, 9), 200, rand.New(rand.NewSource(10)))
	b := mf.New(mf.DefaultConfig())
	b.Train(someRatings(20, 11), 200, rand.New(rand.NewSource(12)))
	st := n.Merge([]Payload{{From: 1, Degree: 1, Model: a}, {From: 2, Degree: 1, Model: b}}, 3)
	if st.ModelsMerged != 2 {
		t.Fatalf("merged %d", st.ModelsMerged)
	}
}

func TestShareDataSamplesStore(t *testing.T) {
	n := mkNode(t, DataSharing, gossip.DPSGD, someRatings(50, 13))
	p := n.Share(4, false)
	if p.Model != nil {
		t.Fatal("data-sharing payload carries a model")
	}
	if len(p.Data) != 5 {
		t.Fatalf("shared %d points, want SharePoints=5", len(p.Data))
	}
	if p.Degree != 4 || p.From != 0 {
		t.Fatalf("payload header: %+v", p)
	}
}

// TestShareDataSteadyStateAllocs guards the live share path: a REX
// sample is drawn into the depth-3 rotation whether or not the caller
// retains the payload, so once the rotation has filled a Share allocates
// nothing, and the samples of three consecutive calls never alias.
func TestShareDataSteadyStateAllocs(t *testing.T) {
	n := mkNode(t, DataSharing, gossip.DPSGD, someRatings(50, 23))
	a, b, c := n.Share(7, false), n.Share(7, false), n.Share(7, true)
	if &a.Data[0] == &b.Data[0] || &b.Data[0] == &c.Data[0] || &a.Data[0] == &c.Data[0] {
		t.Fatal("three consecutive samples share a buffer")
	}
	if got := testing.AllocsPerRun(20, func() { n.Share(7, false) }); got != 0 {
		t.Fatalf("a warm Share(7, false) allocates %.0f objects", got)
	}
}

func TestShareModelCloneSemantics(t *testing.T) {
	n := mkNode(t, ModelSharing, gossip.DPSGD, someRatings(50, 14))
	n.Train()
	ref := n.Share(2, false)
	if ref.Model != n.Model {
		t.Fatal("cloneModel=false must hand out the live model")
	}
	cl := n.Share(2, true)
	if cl.Model == n.Model {
		t.Fatal("cloneModel=true returned the live model")
	}
}

func TestPayloadWireSize(t *testing.T) {
	n := mkNode(t, DataSharing, gossip.DPSGD, someRatings(50, 15))
	p := n.Share(2, false)
	want := 12 + 4 + len(p.Data)*dataset.EncodedSize
	if got := PayloadWireSize(p); got != want {
		t.Fatalf("data wire %d want %d", got, want)
	}
	empty := Payload{From: 1, Degree: 2}
	if got := PayloadWireSize(empty); got != 16 {
		t.Fatalf("empty wire %d want 16", got)
	}
	m := mf.New(mf.DefaultConfig())
	m.Train(someRatings(5, 16), 50, rand.New(rand.NewSource(17)))
	mp := Payload{From: 1, Degree: 2, Model: m}
	if got := PayloadWireSize(mp); got != 12+m.WireSize() {
		t.Fatalf("model wire %d want %d", got, 12+m.WireSize())
	}
}

func TestTestRMSE(t *testing.T) {
	n := mkNode(t, DataSharing, gossip.DPSGD, someRatings(30, 21))
	n.Train()
	r := n.TestRMSE()
	if r <= 0 || r > 5 {
		t.Fatalf("rmse %v", r)
	}
}

func TestNodeRNGDeterministic(t *testing.T) {
	a := mkNode(t, DataSharing, gossip.DPSGD, someRatings(30, 22))
	b := mkNode(t, DataSharing, gossip.DPSGD, someRatings(30, 22))
	if a.RNG().Int63() != b.RNG().Int63() {
		t.Fatal("equal configs produced different rng streams")
	}
}

// TestSharePayloadIsSnapshot enforces the self-containment contract the
// parallel simulator relies on: what Share hands out must be decoupled
// from the sender's live state.
func TestSharePayloadIsSnapshot(t *testing.T) {
	// DataSharing: the sampled slice must not alias the store.
	n := mkNode(t, DataSharing, gossip.DPSGD, someRatings(50, 3))
	p := n.Share(4, false)
	if len(p.Data) == 0 {
		t.Fatal("no data shared")
	}
	orig := p.Data[0]
	p.Data[0].Value = -99
	for _, r := range n.Store.Ratings() {
		if r.User == orig.User && r.Item == orig.Item && r.Value == -99 {
			t.Fatal("mutating the shared sample corrupted the sender's store")
		}
	}

	// ModelSharing with cloneModel=true: the payload model must be an
	// independent copy.
	m := mkNode(t, ModelSharing, gossip.DPSGD, someRatings(50, 4))
	m.Train()
	before, err := m.Model.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pm := m.Share(4, true)
	pm.Model.Train(someRatings(30, 5), 200, rand.New(rand.NewSource(9)))
	after, err := m.Model.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("training the shared clone mutated the sender's model")
	}
}

// TestConcurrentMergeOfSharedPayload enforces that Merge treats payload
// contents as read-only: under D-PSGD every neighbor receives the same
// model clone, and with sim.Config.Workers > 1 they merge it
// concurrently. Run under -race this fails if any implementation writes
// to its sources; it also demands identical outcomes for every receiver.
func TestConcurrentMergeOfSharedPayload(t *testing.T) {
	sender := mkNode(t, ModelSharing, gossip.DPSGD, someRatings(60, 6))
	sender.Train()
	payload := sender.Share(4, true)

	const receivers = 8
	outs := make([][]byte, receivers)
	var wg sync.WaitGroup
	wg.Add(receivers)
	for r := 0; r < receivers; r++ {
		go func(r int) {
			defer wg.Done()
			cfg := Config{ID: 0, Mode: ModelSharing, Algo: gossip.DPSGD, StepsPerEpoch: 50, Seed: 1}
			node := NewNode(cfg, mf.New(mf.DefaultConfig()), someRatings(40, 7), nil)
			node.Merge([]Payload{payload}, 4)
			b, err := node.Model.Marshal()
			if err != nil {
				t.Error(err)
				return
			}
			outs[r] = b
		}(r)
	}
	wg.Wait()
	for r := 1; r < receivers; r++ {
		if string(outs[r]) != string(outs[0]) {
			t.Fatalf("receiver %d diverged from receiver 0", r)
		}
	}
}

// recModel is a model.Model that records the weights MergeWeighted is
// called with; no other method may be reached.
type recModel struct {
	model.Model
	id     int
	selfW  float64
	others []model.Weighted
}

func (m *recModel) MergeWeighted(selfW float64, others []model.Weighted) {
	m.selfW, m.others = selfW, append([]model.Weighted(nil), others...)
}

// TestMergeMHWeightsDoublyStochastic checks the Metropolis–Hastings weights
// where D-PSGD uses them: on random graphs, with payloads arriving in any
// order and some lost, the weights Node.Merge passes to MergeWeighted are
// non-negative, sum to 1 with the self weight, and agree across each edge
// both ends received (w_ij == w_ji).
func TestMergeMHWeightsDoublyStochastic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var g *topology.Graph
		if seed%2 == 0 {
			g = topology.ErdosRenyi(25+rng.Intn(20), 0.05+0.2*rng.Float64(), rng)
		} else {
			g = topology.SmallWorld(25+rng.Intn(20), 2+2*rng.Intn(3), 0.1, rng)
		}
		models := make([]*recModel, g.N())
		for i := range models {
			models[i] = &recModel{id: i}
		}
		// w[i][j] is the weight node i gave node j's model.
		w := make([]map[int]float64, g.N())
		for i := range models {
			var payloads []Payload
			for _, j := range g.Neighbors(i) {
				if rng.Float64() < 0.1 {
					continue // lost in transit
				}
				payloads = append(payloads, Payload{From: j, Degree: g.Degree(j), Model: models[j]})
			}
			rng.Shuffle(len(payloads), func(a, b int) { payloads[a], payloads[b] = payloads[b], payloads[a] })
			n := NewNode(Config{ID: i, Mode: ModelSharing, Algo: gossip.DPSGD, Seed: seed}, models[i], nil, nil)
			if st := n.Merge(payloads, g.Degree(i)); st.ModelsMerged != len(payloads) {
				t.Fatalf("seed %d node %d: merged %d of %d models", seed, i, st.ModelsMerged, len(payloads))
			}
			if len(payloads) == 0 {
				continue
			}
			m := models[i]
			if m.selfW < 0 {
				t.Fatalf("seed %d node %d: negative self weight %v", seed, i, m.selfW)
			}
			sum := m.selfW
			w[i] = map[int]float64{}
			for _, o := range m.others {
				if o.W < 0 {
					t.Fatalf("seed %d node %d: negative weight %v", seed, i, o.W)
				}
				sum += o.W
				w[i][o.M.(*recModel).id] = o.W
			}
			if math.Abs(sum-1) > 1e-12 {
				t.Fatalf("seed %d node %d: weights sum to %v", seed, i, sum)
			}
		}
		for i := range w {
			for j, wij := range w[i] {
				if wji, ok := w[j][i]; ok && wji != wij {
					t.Fatalf("seed %d edge %d-%d: w_ij %v != w_ji %v", seed, i, j, wij, wji)
				}
			}
		}
	}
}
