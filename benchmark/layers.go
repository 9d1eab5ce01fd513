package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"rex/internal/attest"
	"rex/internal/compress"
	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/gossip"
	"rex/internal/knn"
	"rex/internal/loadgen"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
	"rex/internal/nn"
	"rex/internal/rank"
	"rex/internal/runtime"
	"rex/internal/seccha"
	"rex/internal/serve"
	"rex/internal/store"
	"rex/internal/topology"
	"rex/internal/vec"
)

// The layer replay times each module's public functions from outside, on
// real inputs taken from the traced repetition: node 0's store, a
// Node.Share payload, its encoded and sealed frame, its marshaled model.
// Iteration counts are fixed, so every run does the same work.

const replayBatches = 4

// replay holds the inputs and collects the results.
type replay struct {
	e   *env
	r   *rep // failures of replayed operations count against the run
	st  *nodeState
	out map[string]sample
}

// count is the fixed iteration count n, cut to a twentieth on a smoke run.
func (l *replay) count(n int) int {
	if l.e.smoke {
		return max(1, n/20)
	}
	return n
}

// timed runs f in replayBatches batches of count(n) calls and returns the
// mean ns per call of the fastest batch: like repetitions, batches of
// identical work only ever get slower from host noise.
func (l *replay) timed(n int, f func()) (nsPerCall float64, samples int) {
	n = l.count(n)
	best := 0.0
	for b := 0; b < replayBatches; b++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		ns := float64(time.Since(t0).Nanoseconds()) / float64(n)
		if b == 0 || ns < best {
			best = ns
		}
	}
	return best, replayBatches * n
}

func (l *replay) put(name string, value float64, unit string, n int) {
	l.out[name] = sample{value: value, unit: unit, n: n}
}

// ns, us and ms time f and record the per-call mean in that unit.
func (l *replay) ns(name string, n int, f func()) {
	v, s := l.timed(n, f)
	l.put(name, v, "ns", s)
}
func (l *replay) us(name string, n int, f func()) {
	v, s := l.timed(n, f)
	l.put(name, v/1e3, "us", s)
}
func (l *replay) ms(name string, n int, f func()) {
	v, s := l.timed(n, f)
	l.put(name, v/1e6, "ms", s)
}

func (l *replay) check(err error, what string) bool {
	l.r.attempted++
	if err != nil {
		l.r.violate("layer replay: %s: %v", what, err)
		return false
	}
	return true
}

// layerReplay runs the whole ladder and returns one sample per metric.
func layerReplay(e *env, r *rep, st *nodeState) map[string]sample {
	l := &replay{e: e, r: r, st: st, out: map[string]sample{}}
	l.vec()
	l.mf()
	l.nn()
	l.dataset()
	l.core()
	l.compress()
	l.runtime()
	l.crypto()
	l.topologyAndLoadgen()
	l.rankAndKNN()
	l.serveAndStore()
	return l.out
}

func (l *replay) vec() {
	x0, y0 := make([]float32, 10), make([]float32, 10)
	for i := range x0 {
		x0[i], y0[i] = 0.1*float32(i+1), 0.05*float32(10-i)
	}
	x, y := make([]float32, 10), make([]float32, 10)
	// Restart from the same factors every thousand steps: regularization
	// would otherwise shrink them into denormals, which are slow.
	const steps = 1000
	v, n := l.timed(1000, func() {
		copy(x, x0)
		copy(y, y0)
		var bu, bi float32
		for k := 0; k < steps; k++ {
			bu, bi = vec.FusedSGDStep(x, y, 4, 3.5, bu, bi, 0.005, 0.1)
		}
	})
	l.put("vec.fused_sgd_step_ns", v/steps, "ns", n*steps)
	a, b := make([]float32, 1024), make([]float32, 1024)
	for i := range a {
		a[i] = float32(i)
	}
	l.ns("vec.axpy_ns_1k", 200_000, func() { vec.Axpy(1e-6, a, b) })
}

// aliens builds k models that differ from the node's own: the shape of
// what a model-sharing node merges each epoch.
func (l *replay) aliens(k int) []model.Weighted {
	out := make([]model.Weighted, k)
	for i := range out {
		m := l.st.model.Clone()
		m.Train(l.st.ratings, 200, rand.New(rand.NewSource(l.e.seed+int64(i))))
		out[i] = model.Weighted{M: m, W: 1 / float64(k+1)}
	}
	return out
}

func (l *replay) mf() {
	m := l.st.model.Clone().(*mf.Model)
	rng := rand.New(rand.NewSource(l.e.seed))
	const steps = 20_000
	v, s := l.timed(5, func() { m.Train(l.st.ratings, steps, rng) })
	l.put("mf.train_ns_per_step", v/steps, "ns", s*steps)

	var buf []byte
	l.us("mf.marshal_us", 100, func() { buf, _ = m.MarshalAppend(buf[:0]) })
	fresh := mf.New(m.Config())
	l.us("mf.unmarshal_us", 100, func() { fresh.Unmarshal(buf) })
	l.check(fresh.Unmarshal(buf), "mf.Unmarshal")
	others := l.aliens(7)
	l.us("mf.merge_us", 25, func() { m.MergeWeighted(1.0/8, others) })
	l.us("mf.clone_us", 100, func() { m.Clone() })

	items := make([]uint32, l.st.numItems)
	users := make([]uint32, len(items))
	scores := make([]float32, len(items))
	for i := range items {
		items[i] = uint32(i)
		users[i] = l.st.ratings[0].User
	}
	v, s = l.timed(100, func() { m.PredictBatch(users, items, scores) })
	l.put("mf.predict_batch_ns_per_item", v/float64(len(items)), "ns", s*len(items))
}

func (l *replay) nn() {
	ds := dataset.New(l.st.ratings)
	net := nn.NewNet(nn.DefaultConfig(ds.NumUsers, l.st.numItems))
	rng := rand.New(rand.NewSource(l.e.seed))
	const steps = 5
	v, s := l.timed(2, func() { net.Train(l.st.ratings, steps, rng) })
	l.put("nn.train_us_per_step", v/steps/1e3, "us", s*steps)
	us, is, out := make([]uint32, 256), make([]uint32, 256), make([]float32, 256)
	for i := range us {
		rt := l.st.ratings[i%len(l.st.ratings)]
		us[i], is[i] = rt.User, rt.Item
	}
	l.us("nn.predict_batch_us_256", 20, func() { net.PredictBatch(us, is, out) })
}

// incoming draws what a node receives in one epoch: k peers' samples.
func (l *replay) incoming(k, points int) [][]dataset.Rating {
	src := dataset.NewStore(l.st.ratings)
	rng := rand.New(rand.NewSource(l.e.seed + 7))
	out := make([][]dataset.Rating, k)
	for i := range out {
		out[i] = src.Sample(points, rng)
	}
	return out
}

func (l *replay) dataset() {
	half := len(l.st.ratings) / 2
	rest := l.st.ratings[half:]
	v, s := l.timed(10, func() { dataset.NewStore(l.st.ratings[:half]).Append(rest) })
	build, _ := l.timed(10, func() { dataset.NewStore(l.st.ratings[:half]) })
	if len(rest) > 0 {
		l.put("dataset.store_append_ns_per_rating", (v-build)/float64(len(rest)), "ns", s*len(rest))
	}
	st := dataset.NewStore(l.st.ratings)
	rng := rand.New(rand.NewSource(l.e.seed))
	l.us("dataset.store_sample_us_300", 500, func() { st.Sample(300, rng) })
	l.us("dataset.store_snapshot_us", 200, func() { st.Snapshot() })

	// The data pipeline the three engine workloads run at set-up, on the
	// rex-secure shape, whatever workload is being traced.
	spec := movielens.Latest().Scaled(0.5)
	spec.Seed = corpusSeed
	var ds *dataset.Dataset
	l.ms("movielens.generate_ms", 1, func() { ds = movielens.Generate(spec) })
	l.ms("dataset.split_partition_ms", 1, func() {
		tr, te := ds.SplitPerUser(0.7, rand.New(rand.NewSource(corpusSeed)))
		_, err1 := tr.PartitionUsersAcross(8, rand.New(rand.NewSource(l.e.seed)))
		_, err2 := te.PartitionUsersAcross(8, rand.New(rand.NewSource(l.e.seed)))
		if err1 != nil || err2 != nil {
			l.r.violate("layer replay: partition: %v %v", err1, err2)
		}
	})
}

// replayNode rebuilds node 0 over its final store and model.
func (l *replay) replayNode() *core.Node {
	return core.NewNode(core.Config{
		ID: 0, Mode: l.st.mode, Algo: gossip.DPSGD,
		StepsPerEpoch: 300, SharePoints: 300, Seed: l.e.seed,
	}, l.st.model.Clone(), l.st.ratings, l.st.test)
}

// core replays one node-epoch stage by stage over core.Node's public
// methods, with seven peers' payloads of the workload's sharing mode.
func (l *replay) core() {
	node := l.replayNode()
	payloads := make([]core.Payload, 7)
	if l.st.mode == core.ModelSharing {
		for i, a := range l.aliens(7) {
			payloads[i] = core.Payload{From: i + 1, Degree: 7, Model: a.M}
		}
	} else {
		for i, d := range l.incoming(7, 300) {
			payloads[i] = core.Payload{From: i + 1, Degree: 7, Data: d}
		}
	}
	l.us("core.merge_us", 25, func() { node.Merge(payloads, 7) })
	l.us("core.train_us", 25, func() { node.Train() })
	l.us("core.share_us", 25, func() { node.Share(7, false) })
	l.us("core.test_us", 25, func() { node.TestRMSE() })
}

func (l *replay) compress() {
	block := l.incoming(1, 300)[0]
	var enc []byte
	v, s := l.timed(2000, func() { enc = compress.AppendRatingsColumnar(enc[:0], block) })
	l.put("compress.columnar_encode_ns_per_rating", v/float64(len(block)), "ns", s*len(block))
	v, s = l.timed(2000, func() { compress.DecodeRatingsColumnar(enc) })
	l.put("compress.columnar_decode_ns_per_rating", v/float64(len(block)), "ns", s*len(block))
	_, _, err := compress.DecodeRatingsColumnar(enc)
	l.check(err, "DecodeRatingsColumnar")

	raw, err := l.st.model.Marshal()
	if !l.check(err, "mf.Marshal") {
		return
	}
	mbPerS := func(nsPerCall float64) float64 { return float64(len(raw)) / 1e6 / (nsPerCall / 1e9) }
	var comp []byte
	// Level 0 is what the runtime's model section passes.
	v, s = l.timed(5, func() { comp, err = compress.Deflate(raw, 0) })
	l.put("compress.deflate_mb_per_s", mbPerS(v), "MB/s", s)
	if !l.check(err, "Deflate") {
		return
	}
	v, s = l.timed(10, func() { _, err = compress.Inflate(comp) })
	l.put("compress.inflate_mb_per_s", mbPerS(v), "MB/s", s)
	l.check(err, "Inflate")
	l.put("compress.deflate_ratio", float64(len(comp))/float64(len(raw)), "ratio", 1)
}

func (l *replay) runtime() {
	payload := l.replayNode().Share(7, false)
	var enc []byte
	var err error
	l.us("runtime.encode_payload_us", 200, func() { enc, err = runtime.EncodePayloadAppend(enc[:0], payload) })
	if !l.check(err, "EncodePayload") {
		return
	}
	l.us("runtime.decode_payload_us", 200, func() { _, err = runtime.DecodePayload(enc, newMF) })
	l.check(err, "DecodePayload")

	frame := make([]byte, 1024)
	eps := runtime.NewChanNet(2)
	l.us("runtime.chan_send_us", 20_000, func() {
		err = eps[0].Send(1, frame)
		<-eps[1].Inbox()
	})
	l.check(err, "ChanNet send")
	closeAll(eps)

	// One 16 KB frame there and back over loopback TCP.
	pair, binds, err := bindTCP(l.e, 2)
	l.r.attempted += binds - 1
	if !l.check(err, "TCP bind") {
		return
	}
	defer closeAll(pair)
	big := make([]byte, 16<<10)
	l.us("runtime.tcp_roundtrip_us_16k", 200, func() {
		if err = pair[0].Send(1, big); err == nil {
			env := <-pair[1].Inbox()
			if err = pair[1].Send(0, env.Data); err == nil {
				<-pair[0].Inbox()
			}
		}
	})
	l.check(err, "TCP round trip")
}

// handshake runs one mutual attestation to a pair of channel keys.
func handshake(inf *attest.Infrastructure, pa, pb *attest.Platform, entropy *rand.Rand) (ka, kb []byte, err error) {
	ea, err := attest.NewExchange(pa, inf, enclaveMeasurement, entropy)
	if err != nil {
		return nil, nil, err
	}
	eb, err := attest.NewExchange(pb, inf, enclaveMeasurement, entropy)
	if err != nil {
		return nil, nil, err
	}
	helloA, err := ea.Hello()
	if err != nil {
		return nil, nil, err
	}
	helloB, err := eb.Hello()
	if err != nil {
		return nil, nil, err
	}
	quoteB, err := eb.HandleMessage(helloA)
	if err != nil {
		return nil, nil, err
	}
	quoteA, err := ea.HandleMessage(helloB)
	if err != nil {
		return nil, nil, err
	}
	if _, err = ea.HandleMessage(quoteB); err != nil {
		return nil, nil, err
	}
	if _, err = eb.HandleMessage(quoteA); err != nil {
		return nil, nil, err
	}
	if ka, err = ea.ChannelKey(); err != nil {
		return nil, nil, err
	}
	kb, err = eb.ChannelKey()
	return ka, kb, err
}

func (l *replay) crypto() {
	entropy := rand.New(rand.NewSource(l.e.seed))
	inf := attest.NewInfrastructure()
	pa, err := inf.NewPlatform(entropy)
	if !l.check(err, "NewPlatform") {
		return
	}
	pb, err := inf.NewPlatform(entropy)
	if !l.check(err, "NewPlatform") {
		return
	}
	var ka, kb []byte
	l.ms("attest.handshake_ms", 3, func() { ka, kb, err = handshake(inf, pa, pb, entropy) })
	if !l.check(err, "attestation handshake") {
		return
	}
	tx, err := seccha.NewChannel(ka, true)
	if !l.check(err, "NewChannel") {
		return
	}
	rx, err := seccha.NewChannel(kb, false)
	if !l.check(err, "NewChannel") {
		return
	}
	// Sequence numbers advance per frame, so every sealed frame is kept
	// and opened once, in order.
	sealOpen := func(size, n int) (sealNs, openNs float64, samples int) {
		plain := make([]byte, size)
		var sealed [][]byte
		sealNs, samples = l.timed(n, func() { sealed = append(sealed, tx.SealAppend(nil, plain)) })
		i := 0
		var buf []byte
		openNs, _ = l.timed(n, func() {
			if buf, err = rx.OpenAppend(buf[:0], sealed[i]); err != nil {
				l.r.violate("layer replay: seccha.Open frame %d: %v", i, err)
			}
			i++
		})
		return sealNs, openNs, samples
	}
	s1, o1, n1 := sealOpen(1024, 2000)
	l.put("seccha.seal_us_1k", s1/1e3, "us", n1)
	l.put("seccha.open_us_1k", o1/1e3, "us", n1)
	s2, o2, n2 := sealOpen(1<<20, 4)
	l.put("seccha.seal_mb_per_s_1m", float64(1<<20)/1e6/(s2/1e9), "MB/s", n2)
	l.put("seccha.open_mb_per_s_1m", float64(1<<20)/1e6/(o2/1e9), "MB/s", n2)
}

func (l *replay) topologyAndLoadgen() {
	g := topology.NewSmallWorldStream(10000, 6, 0.03, uint64(l.e.seed)+0xC0FFEE)
	i := 0
	l.ns("topology.stream_neighbors_ns", 10_000, func() { g.Neighbors(i % 10000); i++ })

	spec := &loadgen.Spec{
		Name: "replay", Seed: uint64(l.e.seed), Users: 600, Items: l.st.numItems,
		Ticks: 30, RatePerUserTick: 0.2, QueryFraction: 0.7, TopN: 10,
	}
	if !l.check(spec.Validate(), "loadgen spec") {
		return
	}
	gen := loadgen.NewGen(spec)
	var events []loadgen.Event
	total := 0
	v, s := l.timed(5, func() {
		total = 0
		for t := 0; t < spec.Ticks; t++ {
			events = gen.EventsAt(t, events[:0])
			total += len(events)
		}
	})
	l.put("loadgen.gen_events_per_s", float64(total)/(v/1e9), "1/s", s*total)
}

func (l *replay) rankAndKNN() {
	var ix *rank.Index
	l.ms("rank.index_build_ms", 5, func() { ix = rank.NewIndex(l.st.ratings, l.st.numItems) })
	users := distinctUsers(l.st.ratings)
	i := 0
	l.ms("rank.topn_ms", 50, func() { ix.TopN(l.st.model, users[i%len(users)], 10); i++ })
	l.ms("knn.build_ms", 2, func() { knn.New(knn.DefaultConfig(), l.st.ratings) })
}

// tail records the highest percentile of ms that still has ten samples
// beyond it, under a name that says p99; the note carries the percentile
// actually reported.
func (l *replay) tail(name string, ms []float64) {
	p, v := tailPercentile(ms)
	l.out[name] = sample{value: v, unit: "ms", n: len(ms), note: fmt.Sprintf("p%g", p)}
}

// serveAndStore is the extended serving probe: node 0's final state behind
// a real serve.Server whose /rate hook appends to a real store.Dir.
func (l *replay) serveAndStore() {
	tmp, err := os.MkdirTemp(l.e.tmp, "probe-")
	if !l.check(err, "temp dir") {
		return
	}
	defer os.RemoveAll(tmp)
	dir, err := store.Open(tmp)
	if !l.check(err, "store.Open") {
		return
	}
	defer dir.Close()
	var mu sync.Mutex // rexd serializes appends the same way
	var appendMs []float64
	stub := newStubNode(l.st)
	srv, err := serve.New(serve.Config{
		Node: stub, NumItems: l.st.numItems,
		OnRate: func(rs []dataset.Rating) error {
			mu.Lock()
			defer mu.Unlock()
			t0 := time.Now()
			err := dir.Append(rs)
			appendMs = append(appendMs, float64(time.Since(t0).Nanoseconds())/1e6)
			return err
		},
	})
	if !l.check(err, "serve.New") {
		return
	}
	h := srv.Handler()
	users := distinctUsers(l.st.ratings)
	// status folds one response code into the run's operation counts; the
	// two concurrent writers below report theirs after they have joined.
	status := func(what string, code int) {
		l.r.attempted++
		if code != http.StatusOK {
			l.r.violate("probe %s: status %d", what, code)
		}
	}
	get := func(target string) float64 {
		code, _, ms := call(h, http.MethodGet, target, nil)
		status("GET "+target, code)
		return ms
	}
	rate := func(i int) (ms float64, code int) {
		body := fmt.Sprintf(`{"user":%d,"item":%d,"value":4}`, users[i%len(users)], i%l.st.numItems)
		code, _, ms = call(h, http.MethodPost, "/rate", []byte(body))
		return ms, code
	}

	l.ms("store.save_snapshot_ms", 2, func() {
		l.check(dir.SaveSnapshot(1, 1, l.st.model, l.st.ratings), "SaveSnapshot")
	})

	var rec, first, rateMs, statusMs, knnMs []float64
	for i := 0; i < l.count(1200); i++ {
		rec = append(rec, get(fmt.Sprintf("/recommend?user=%d&n=10", users[i%len(users)])))
	}
	l.tail("serve.recommend_ms_p99", rec)
	for i := 0; i < l.count(20); i++ {
		stub.republish()
		first = append(first, get(fmt.Sprintf("/recommend?user=%d&n=10", users[i%len(users)])))
	}
	l.put("serve.first_query_after_publish_ms", median(first), "ms", len(first))
	for i := 0; i < l.count(1200); i++ {
		ms, code := rate(i)
		status("POST /rate", code)
		rateMs = append(rateMs, ms)
	}
	l.put("serve.rate_ms_p50", median(rateMs), "ms", len(rateMs))
	l.tail("serve.rate_ms_p99", rateMs)
	l.put("store.append_ms_p50", median(appendMs), "ms", len(appendMs))
	l.tail("store.append_ms_p99", appendMs)

	// Two closed-loop writers at once: the number a WAL group commit
	// would move.
	var wg sync.WaitGroup
	var c2 [2][]float64
	var codes [2][]int
	for wtr := range c2 {
		wg.Add(1)
		go func(wtr int) {
			defer wg.Done()
			for i := 0; i < l.count(300); i++ {
				ms, code := rate(2000 + wtr*300 + i)
				c2[wtr] = append(c2[wtr], ms)
				codes[wtr] = append(codes[wtr], code)
			}
		}(wtr)
	}
	wg.Wait()
	for _, code := range append(codes[0], codes[1]...) {
		status("POST /rate (2 writers)", code)
	}
	l.put("serve.rate_c2_ms_p50", median(append(c2[0], c2[1]...)), "ms", len(c2[0])+len(c2[1]))

	for i := 0; i < l.count(1000); i++ {
		statusMs = append(statusMs, get("/status"))
	}
	l.put("serve.handler_overhead_us", median(statusMs)*1e3, "us", len(statusMs))
	for i := 0; i < l.count(20); i++ {
		knnMs = append(knnMs, get(fmt.Sprintf("/recommend?user=%d&n=10&model=knn", users[i%len(users)])))
	}
	l.put("knn.recommend_ms_p50", median(knnMs), "ms", len(knnMs))

	l.ms("store.load_ms", 2, func() {
		_, _, err := dir.Load()
		l.check(err, "store.Load")
	})
}
