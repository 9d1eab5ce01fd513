// Benchmarks regenerating every table and figure of the paper's evaluation
// (scaled-down workloads; `go run ./cmd/rexbench -exp <id> -full` runs
// paper scale), plus ablations of the design choices DESIGN.md calls out.
package rex

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/experiments"
	"rex/internal/gossip"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
	"rex/internal/nn"
	"rex/internal/rank"
	"rex/internal/runtime"
	"rex/internal/serve"
	"rex/internal/sim"
	"rex/internal/topology"
)

// benchExperiment runs one paper artifact per iteration. The first
// iteration executes the scenario; later iterations may hit the package's
// memo cache, so b.N>1 timings measure the harness, not the simulation —
// artifact regeneration, not throughput, is the point of these benches.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		if err := e.Run(experiments.Params{Seed: 1, Out: io.Discard}); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

func BenchmarkTable1(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig1(b *testing.B)   { benchExperiment(b, "fig1") }
func BenchmarkFig2(b *testing.B)   { benchExperiment(b, "fig2") }
func BenchmarkTable2(b *testing.B) { benchExperiment(b, "table2") }
func BenchmarkFig3(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4(b *testing.B)   { benchExperiment(b, "fig4") }
func BenchmarkTable3(b *testing.B) { benchExperiment(b, "table3") }
func BenchmarkFig5(b *testing.B)   { benchExperiment(b, "fig5") }
func BenchmarkFig6(b *testing.B)   { benchExperiment(b, "fig6") }
func BenchmarkFig7(b *testing.B)   { benchExperiment(b, "fig7") }
func BenchmarkTable4(b *testing.B) { benchExperiment(b, "table4") }

// --- ablation benches: the design choices DESIGN.md §5 calls out ---

// ablationWorkload builds a small REX-ready network shared by ablations.
func ablationWorkload(b *testing.B, seed int64) (sim.Config, int) {
	b.Helper()
	spec := movielens.Latest().Scaled(0.08)
	spec.Seed = seed
	ds := movielens.Generate(spec)
	rng := rand.New(rand.NewSource(seed))
	tr, te := ds.SplitPerUser(0.7, rng)
	const n = 20
	trainParts, err := tr.PartitionUsersAcross(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	testParts, err := te.PartitionUsersAcross(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	mcfg := mf.DefaultConfig()
	cfg := sim.Config{
		Graph: topology.SmallWorld(n, 6, 0.03, rand.New(rand.NewSource(seed))),
		Algo:  gossip.DPSGD, Mode: core.DataSharing,
		Epochs: 50, StepsPerEpoch: 200, SharePoints: 80,
		NewModel: func(int) model.Model { return mf.New(mcfg) },
		Train:    trainParts, Test: testParts,
		Compute: sim.MFCompute(mcfg.K), Seed: seed,
	}
	return cfg, n
}

// BenchmarkAblationMergeWeights compares D-PSGD model merging with
// Metropolis–Hastings weights (the paper's §III-C2 choice) against naive
// uniform averaging on an irregular graph.
func BenchmarkAblationMergeWeights(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, _ := ablationWorkload(b, 7)
		cfg.Mode = core.ModelSharing
		mh, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg2, _ := ablationWorkload(b, 7)
		cfg2.Mode = core.ModelSharing
		cfg2.UniformMerge = true
		uni, err := sim.Run(cfg2)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mh.FinalRMSE, "rmse-MH")
		b.ReportMetric(uni.FinalRMSE, "rmse-uniform")
	}
}

// BenchmarkAblationFixedSteps contrasts the paper's fixed SGD budget per
// epoch (§III-E) with naive full-pass epochs whose duration grows with the
// raw-data store.
func BenchmarkAblationFixedSteps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fixedCfg, _ := ablationWorkload(b, 11)
		fixed, err := sim.Run(fixedCfg)
		if err != nil {
			b.Fatal(err)
		}
		fullCfg, _ := ablationWorkload(b, 11)
		fullCfg.StepsPerEpoch = 0 // full pass
		full, err := sim.Run(fullCfg)
		if err != nil {
			b.Fatal(err)
		}
		// Fixed steps: constant epoch duration. Full pass: last epochs are
		// much slower than the first because the store has grown.
		fFirst := fixed.Series[1].Stage.Train
		fLast := fixed.Series[len(fixed.Series)-1].Stage.Train
		gFirst := full.Series[1].Stage.Train
		gLast := full.Series[len(full.Series)-1].Stage.Train
		b.ReportMetric(fLast/fFirst, "fixed-growth")
		b.ReportMetric(gLast/gFirst, "fullpass-growth")
	}
}

// BenchmarkAblationShareParallel measures the §III-D "future work"
// optimization: overlapping raw-data sharing with training.
func BenchmarkAblationShareParallel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		seqCfg, _ := ablationWorkload(b, 13)
		seq, err := sim.Run(seqCfg)
		if err != nil {
			b.Fatal(err)
		}
		parCfg, _ := ablationWorkload(b, 13)
		parCfg.ShareParallel = true
		par, err := sim.Run(parCfg)
		if err != nil {
			b.Fatal(err)
		}
		if par.TotalTimeMean > seq.TotalTimeMean {
			b.Fatalf("parallel share slower: %v > %v", par.TotalTimeMean, seq.TotalTimeMean)
		}
		b.ReportMetric(seq.TotalTimeMean/par.TotalTimeMean, "speedup")
	}
}

// BenchmarkAblationStatelessSampling quantifies the duplicate rate of the
// paper's stateless raw-data sampling (§III-E): nodes may resend points,
// and the receiver's dedup absorbs them.
func BenchmarkAblationStatelessSampling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg, _ := ablationWorkload(b, 17)
		res, err := sim.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		_ = res
	}
}

// --- microbenchmarks of the hot paths (the README kernel table) ---

// BenchmarkMFTrain measures one SGD step of the MF hot path (b.N steps of
// uniform sampling + the fused vec kernel).
func BenchmarkMFTrain(b *testing.B) {
	spec := movielens.Latest().Scaled(0.05)
	ds := movielens.Generate(spec)
	m := mf.New(mf.DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	m.Train(ds.Ratings, b.N, rng)
}

func BenchmarkMFMerge(b *testing.B) {
	spec := movielens.Latest().Scaled(0.05)
	ds := movielens.Generate(spec)
	rng := rand.New(rand.NewSource(1))
	a := mf.New(mf.DefaultConfig())
	a.Train(ds.Ratings, 5000, rng)
	c := mf.New(mf.DefaultConfig())
	c.Train(ds.Ratings, 5000, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MergeWeighted(0.5, []model.Weighted{{M: c, W: 0.5}})
	}
}

// BenchmarkMFMarshal measures the steady-state share-path serialization: a
// node re-serializes its model every epoch, so the buffer is reused via
// MarshalAppend (zero allocations per op). BenchmarkMFMarshalAlloc keeps
// the old fresh-allocation measurement for comparison.
func BenchmarkMFMarshal(b *testing.B) {
	spec := movielens.Latest().Scaled(0.05)
	ds := movielens.Generate(spec)
	m := mf.New(mf.DefaultConfig())
	m.Train(ds.Ratings, 5000, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = m.MarshalAppend(buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMFMarshalAlloc(b *testing.B) {
	spec := movielens.Latest().Scaled(0.05)
	ds := movielens.Generate(spec)
	m := mf.New(mf.DefaultConfig())
	m.Train(ds.Ratings, 5000, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

// servingData is the serve-rw shape: ML-latest at half scale, a 4.5 k-item
// catalog under 50 k ratings.
func servingData() *dataset.Dataset { return movielens.Generate(movielens.Latest().Scaled(0.5)) }

// fixedNode is a serve.Node that publishes one snapshot forever.
type fixedNode struct{ snap *runtime.Snapshot }

func (n fixedNode) Snapshot() *runtime.Snapshot { return n.snap }
func (n fixedNode) Status() *runtime.Status     { return &runtime.Status{Epoch: n.snap.Epoch} }
func (n fixedNode) Ingest([]dataset.Rating) int { return 0 }
func (n fixedNode) Drain()                      {}

// BenchmarkRecommend measures one GET /recommend?n=10 through the real
// handler on the MF path, users in rotation, index already built: routing,
// catalog scoring, top-n selection and the JSON answer.
func BenchmarkRecommend(b *testing.B) {
	ds := servingData()
	m := mf.New(mf.DefaultConfig())
	m.Train(ds.Ratings, 50_000, rand.New(rand.NewSource(1)))
	srv, err := serve.New(serve.Config{
		Node:     fixedNode{&runtime.Snapshot{Epoch: 1, Model: m, Ratings: ds.Ratings}},
		NumItems: ds.NumItems,
	})
	if err != nil {
		b.Fatal(err)
	}
	h := srv.Handler()
	reqs := make([]*http.Request, 64)
	for u := range reqs {
		reqs[u] = httptest.NewRequest("GET", fmt.Sprintf("/recommend?user=%d&n=10", u), nil)
	}
	h.ServeHTTP(httptest.NewRecorder(), reqs[0]) // builds the rank index
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, reqs[i%len(reqs)])
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body)
		}
	}
}

// BenchmarkIndexBuild measures rank.NewIndex over the same store: what the
// first query after every publish pays.
func BenchmarkIndexBuild(b *testing.B) {
	ds := servingData()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchIndex = rank.NewIndex(ds.Ratings, ds.NumItems)
	}
}

var benchIndex *rank.Index // keeps BenchmarkIndexBuild's result alive

// BenchmarkNNForward measures the DNN eval path: one batched forward pass
// over 256 examples per op via PredictBatch (the test-stage workload).
func BenchmarkNNForward(b *testing.B) {
	const users, items = 610, 9000
	cfg := nn.DefaultConfig(users, items)
	net := nn.NewNet(cfg)
	rng := rand.New(rand.NewSource(2))
	const batch = 256
	us := make([]uint32, batch)
	is := make([]uint32, batch)
	out := make([]float32, batch)
	for i := range us {
		us[i] = uint32(rng.Intn(users))
		is[i] = uint32(rng.Intn(items))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.PredictBatch(us, is, out)
	}
}

// BenchmarkNNForwardSingle is the pre-batching shape of the same workload
// — 256 one-example forward passes — kept as the comparison point for the
// batched path above.
func BenchmarkNNForwardSingle(b *testing.B) {
	const users, items = 610, 9000
	cfg := nn.DefaultConfig(users, items)
	net := nn.NewNet(cfg)
	rng := rand.New(rand.NewSource(2))
	const batch = 256
	us := make([]uint32, batch)
	is := make([]uint32, batch)
	for i := range us {
		us[i] = uint32(rng.Intn(users))
		is[i] = uint32(rng.Intn(items))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < batch; j++ {
			net.Predict(us[j], is[j])
		}
	}
}

func BenchmarkStoreSample(b *testing.B) {
	spec := movielens.Latest().Scaled(0.1)
	ds := movielens.Generate(spec)
	st := NewStore(ds.Ratings)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Sample(300, rng)
	}
}

func BenchmarkGraphSmallWorld(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		g := topology.SmallWorld(610, 6, 0.03, rng)
		if !topology.IsConnected(g) {
			b.Fatal("disconnected small world")
		}
	}
}

// Example-style smoke check keeping the facade honest.
func BenchmarkFacadeSimulate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		spec := MovieLensLatest().Scaled(0.05)
		spec.Seed = 3
		ds := GenerateMovieLens(spec)
		rng := rand.New(rand.NewSource(3))
		tr, te := ds.SplitPerUser(0.7, rng)
		const n = 12
		trainParts, err := tr.PartitionUsersAcross(n, rand.New(rand.NewSource(3)))
		if err != nil {
			b.Fatal(err)
		}
		testParts, err := te.PartitionUsersAcross(n, rand.New(rand.NewSource(3)))
		if err != nil {
			b.Fatal(err)
		}
		mcfg := DefaultMFConfig()
		res, err := Simulate(SimConfig{
			Graph: FullyConnected(n), Algo: DPSGD, Mode: DataSharing,
			Epochs: 20, StepsPerEpoch: 100, SharePoints: 50,
			NewModel: func(int) Model { return NewMF(mcfg) },
			Train:    trainParts, Test: testParts,
			Compute: MFCompute(mcfg.K), Seed: 3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.FinalRMSE <= 0 {
			b.Fatal("no RMSE")
		}
	}
	if b.N > 0 {
		fmt.Fprint(io.Discard, "ok")
	}
}

// --- extension experiments (paper §IV-E discussion + future work) ---

func BenchmarkExtNonIID(b *testing.B)      { benchExperiment(b, "ext-noniid") }
func BenchmarkExtChurn(b *testing.B)       { benchExperiment(b, "ext-churn") }
func BenchmarkExtPoison(b *testing.B)      { benchExperiment(b, "ext-poison") }
func BenchmarkExtCompression(b *testing.B) { benchExperiment(b, "ext-compression") }
func BenchmarkExtKNN(b *testing.B)         { benchExperiment(b, "ext-knn") }

func BenchmarkExtDynamic(b *testing.B) { benchExperiment(b, "ext-dynamic") }

// --- parallel engine benches: sequential-vs-parallel equivalence and
// wall-clock speedup of the worker pool (sim.Config.Workers) ---

// parallelWorkload is the acceptance workload for the parallel engine: a
// 64-node small-world graph running 50 epochs of D-PSGD data sharing.
func parallelWorkload(b *testing.B, workers int) sim.Config {
	b.Helper()
	const seed = 21
	spec := movielens.Latest().Scaled(0.15)
	spec.Seed = seed
	ds := movielens.Generate(spec)
	rng := rand.New(rand.NewSource(seed))
	tr, te := ds.SplitPerUser(0.7, rng)
	const n = 64
	trainParts, err := tr.PartitionUsersAcross(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	testParts, err := te.PartitionUsersAcross(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	mcfg := mf.DefaultConfig()
	return sim.Config{
		Graph: topology.SmallWorld(n, 6, 0.03, rand.New(rand.NewSource(seed))),
		Algo:  gossip.DPSGD, Mode: core.DataSharing,
		Epochs: 50, StepsPerEpoch: 300, SharePoints: 100,
		Workers:  workers,
		NewModel: func(int) model.Model { return mf.New(mcfg) },
		Train:    trainParts, Test: testParts,
		Compute: sim.MFCompute(mcfg.K), Seed: seed,
	}
}

// BenchmarkSimWorkers measures the wall-clock effect of the worker pool on
// the 64-node / 50-epoch D-PSGD workload; compare the workers=1 and
// workers=N per-op times for the speedup. Workload construction happens
// outside the timed region so only sim.Run is measured (Run never mutates
// the shared Train/Test partitions or the graph, so one Config serves all
// iterations).
func BenchmarkSimWorkers(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8, 0} {
		name := fmt.Sprintf("workers=%d", w)
		if w == 0 {
			name = "workers=gomaxprocs"
		}
		b.Run(name, func(b *testing.B) {
			cfg := parallelWorkload(b, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- live runtime benches: cluster epoch wall-clock and TCP share fan-out ---

// liveClusterConfig builds a fresh 8-node fully connected live-cluster
// workload (degree 7, D-PSGD raw-data sharing). Training is deliberately
// light (50 SGD steps) and sharing heavy (400 points/epoch) so the bench
// weights the runtime's crypto/codec/transport path, not the MF kernel.
func liveClusterConfig(b *testing.B, secure bool, wire runtime.WireMode, epochs int) runtime.ClusterConfig {
	b.Helper()
	const seed = 33
	const n = 8
	spec := movielens.Latest().Scaled(0.05)
	spec.Seed = seed
	ds := movielens.Generate(spec)
	rng := rand.New(rand.NewSource(seed))
	tr, te := ds.SplitPerUser(0.7, rng)
	trainParts, err := tr.PartitionUsersAcross(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	testParts, err := te.PartitionUsersAcross(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		b.Fatal(err)
	}
	mcfg := mf.DefaultConfig()
	nodes := make([]*core.Node, n)
	for i := range nodes {
		nodes[i] = core.NewNode(core.Config{
			ID: i, Mode: core.DataSharing, Algo: gossip.DPSGD,
			StepsPerEpoch: 50, SharePoints: 400, Seed: seed,
		}, mf.New(mcfg), trainParts[i], testParts[i])
	}
	return runtime.ClusterConfig{
		Graph: topology.FullyConnected(n), Nodes: nodes, Epochs: epochs,
		Secure: secure, Wire: wire,
		NewModel: func() model.Model { return mf.New(mcfg) },
	}
}

// BenchmarkClusterEpoch measures the live in-proc cluster (8 nodes, full
// mesh, D-PSGD data sharing) with REX protections on and off. One op is a
// whole cluster run; the ms/epoch metric divides out the epoch count
// (secure ops also pay the one-time 28-pair attestation). The bare
// native/secure names run the default delta wire — those are the headline
// numbers — and the -fullwire variants re-run the identical workload on
// flat frames so the wireB/epoch ratio between the two is the delta
// encoder's measured saving (gated by cmd/benchgate -wire).
func BenchmarkClusterEpoch(b *testing.B) {
	const epochs = 6
	for _, bc := range []struct {
		name   string
		secure bool
		wire   runtime.WireMode
	}{
		{"native", false, runtime.WireDelta},
		{"secure", true, runtime.WireDelta},
		{"native-fullwire", false, runtime.WireFull},
		{"secure-fullwire", true, runtime.WireFull},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var wire int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := liveClusterConfig(b, bc.secure, bc.wire, epochs)
				b.StartTimer()
				stats, err := runtime.RunCluster(cfg)
				if err != nil {
					b.Fatal(err)
				}
				for _, s := range stats {
					wire += s.BytesOnWire
				}
			}
			b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N*epochs), "ms/epoch")
			// Total cluster bytes handed to the transport per epoch: frame
			// payloads + kind framing + (secure) attestation handshakes —
			// the secure-vs-native wire overhead in one number.
			b.ReportMetric(float64(wire)/float64(b.N*epochs), "wireB/epoch")
		})
	}
}

// BenchmarkTCPShareRound measures a D-PSGD share fan-out over the real TCP
// transport: one op sends a sealed-payload-sized frame to 4 peers and
// waits until all 4 have delivered it to their inbox.
func BenchmarkTCPShareRound(b *testing.B) {
	const peers = 4
	hubPeers := map[int]string{}
	recvs := make([]*runtime.TCPNet, peers)
	acks := make(chan struct{}, 64)
	for p := 0; p < peers; p++ {
		tn, err := runtime.NewTCPNet(p+1, "127.0.0.1:0", nil)
		if err != nil {
			b.Fatal(err)
		}
		defer tn.Close()
		recvs[p] = tn
		hubPeers[p+1] = tn.Addr().String()
		go func(tn *runtime.TCPNet) {
			for range tn.Inbox() {
				acks <- struct{}{}
			}
		}(tn)
	}
	hub, err := runtime.NewTCPNet(0, "127.0.0.1:0", hubPeers)
	if err != nil {
		b.Fatal(err)
	}
	defer hub.Close()

	frame := make([]byte, 16<<10) // ~ a sealed 1.3k-point REX payload
	b.SetBytes(int64(peers * len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 1; p <= peers; p++ {
			if err := hub.Send(p, frame); err != nil {
				b.Fatal(err)
			}
		}
		for p := 0; p < peers; p++ {
			<-acks
		}
	}
}

// BenchmarkWireBatch measures the TCP lane's frame coalescing: one op
// bursts a 16-frame wave (the lane batch cap) at a single peer and waits
// for all deliveries. Because the sends enqueue far faster than the lane
// drains, the writer coalesces the queue into vectored writes — compare
// MB/s here against BenchmarkTCPShareRound's one-frame-per-write path.
func BenchmarkWireBatch(b *testing.B) {
	const burst = 16
	recv, err := runtime.NewTCPNet(1, "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	acks := make(chan struct{}, 2*burst)
	go func() {
		for range recv.Inbox() {
			acks <- struct{}{}
		}
	}()
	hub, err := runtime.NewTCPNet(0, "127.0.0.1:0", map[int]string{1: recv.Addr().String()})
	if err != nil {
		b.Fatal(err)
	}
	defer hub.Close()

	frame := make([]byte, 4<<10) // ~ a delta share frame after packing
	b.SetBytes(int64(burst * len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f := 0; f < burst; f++ {
			if err := hub.Send(1, frame); err != nil {
				b.Fatal(err)
			}
		}
		for f := 0; f < burst; f++ {
			<-acks
		}
	}
}

// resultsIdentical compares two runs bit-for-bit: every series row and the
// aggregate metrics, with NaN equal to NaN (TestEvery-skipped epochs).
func resultsIdentical(a, b *sim.Result) bool {
	f64eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	stEq := func(x, y sim.StageTimes) bool {
		return f64eq(x.Merge, y.Merge) && f64eq(x.Train, y.Train) &&
			f64eq(x.Share, y.Share) && f64eq(x.Test, y.Test)
	}
	if len(a.Series) != len(b.Series) {
		return false
	}
	for i := range a.Series {
		x, y := a.Series[i], b.Series[i]
		if x.Epoch != y.Epoch || !f64eq(x.MeanRMSE, y.MeanRMSE) ||
			!f64eq(x.TimeMean, y.TimeMean) || !f64eq(x.TimeMax, y.TimeMax) ||
			!f64eq(x.BytesPerNode, y.BytesPerNode) ||
			!f64eq(x.EpochBytesPerNode, y.EpochBytesPerNode) || !stEq(x.Stage, y.Stage) {
			return false
		}
	}
	return f64eq(a.FinalRMSE, b.FinalRMSE) && f64eq(a.TotalTimeMean, b.TotalTimeMean) &&
		f64eq(a.TotalTimeMax, b.TotalTimeMax) && f64eq(a.BytesPerNode, b.BytesPerNode) &&
		stEq(a.Stage, b.Stage) && a.PeakHeapBytes == b.PeakHeapBytes &&
		f64eq(a.MeanHeapBytes, b.MeanHeapBytes) && a.FailedNodes == b.FailedNodes
}

// BenchmarkSimParallelEquivalence runs the workload sequentially and on 4
// workers each iteration, fails unless the results agree bit-for-bit, and
// reports the speedup — the engine's correctness contract as a benchmark.
// Only the sim.Run calls are timed.
func BenchmarkSimParallelEquivalence(b *testing.B) {
	seqCfg := parallelWorkload(b, 1)
	parCfg := parallelWorkload(b, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		seq, err := sim.Run(seqCfg)
		if err != nil {
			b.Fatal(err)
		}
		tSeq := time.Since(t0)
		t0 = time.Now()
		par, err := sim.Run(parCfg)
		if err != nil {
			b.Fatal(err)
		}
		tPar := time.Since(t0)
		if !resultsIdentical(seq, par) {
			b.Fatalf("parallel run diverged from sequential: %+v vs %+v", seq, par)
		}
		b.ReportMetric(tSeq.Seconds()/tPar.Seconds(), "speedup-4w")
	}
}
