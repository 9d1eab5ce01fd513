package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"rex/internal/attest"
	"rex/internal/core"
	"rex/internal/gossip"
	"rex/internal/mf"
	"rex/internal/runtime"
	"rex/internal/topology"
)

// clusterCfg sizes a live-runtime workload: a secure full-mesh D-PSGD
// cluster of free-running engines over MovieLens-Latest × scale.
type clusterCfg struct {
	nodes      int
	scale      float64
	steps      int // SGD steps per node-epoch
	share      int // raw points sampled per node-epoch (data sharing)
	epochs     int // epochs per repetition, the first one is set-up
	mode       core.Mode
	tcp        bool // loopback TCPNet instead of in-process ChanNet
	probeCalls int  // /recommend calls of the serving probe
	// pinRNG takes the nodes' SGD and sampling RNGs from corpusSeed, not
	// from the run's seed: a model's rows materialize on first SGD touch,
	// so under model sharing the order of SGD samples decides frame sizes,
	// and with them bytes, allocation and live heap, by 1-2 % — the whole
	// of those metrics' bounds.
	pinRNG bool
}

type clusterSizes struct{ full, smoke clusterCfg }

// rexSecure is REX as the paper deploys it (§IV-C): raw-data sharing
// between attested enclaves over the delta wire, in process.
var rexSecure = clusterSizes{
	full:  clusterCfg{nodes: 8, scale: 0.5, steps: 300, share: 300, epochs: 120, mode: core.DataSharing, probeCalls: 200},
	smoke: clusterCfg{nodes: 4, scale: 0.05, steps: 40, share: 40, epochs: 6, mode: core.DataSharing, probeCalls: 40},
}

// msTCP is the baseline REX is compared against: the same data, nodes and
// seed exchanging whole models over loopback TCP.
var msTCP = clusterSizes{
	full:  clusterCfg{nodes: 8, scale: 0.5, steps: 300, share: 300, epochs: 6, mode: core.ModelSharing, tcp: true, probeCalls: 200, pinRNG: true},
	smoke: clusterCfg{nodes: 4, scale: 0.05, steps: 40, share: 40, epochs: 4, mode: core.ModelSharing, tcp: true, probeCalls: 40, pinRNG: true},
}

// enclaveMeasurement is the identity every node attests, the one rexd and
// the cluster drivers use.
var enclaveMeasurement = attest.MeasureCode([]byte("rex-enclave-v1"))

// quoteSlackBytes bounds how much one attestation quote's wire size varies
// between runs of identical inputs (two base64 signatures, +-2 bytes each).
const quoteSlackBytes = 8

// TCP listeners take ports from a fixed range below Linux's ephemeral
// range (32768 and up): a listen-then-close probe on :0 hands out ports
// the kernel may give to an outbound dial a moment later.
const (
	portBase     = 20000
	portSpan     = 12000
	bindAttempts = 16
)

// bindTCP opens one TCPNet per node on consecutive ports of a block chosen
// from (seed, repetition, attempt); a block with a port in use is dropped
// whole and the next one tried. It reports binds attempted.
func bindTCP(e *env, n int) (eps []runtime.Endpoint, attempted int, err error) {
	for attempt := 0; attempt < bindAttempts; attempt++ {
		first := blockStart(e, n, attempt)
		addrs := make([]string, n)
		for i := range addrs {
			addrs[i] = fmt.Sprintf("127.0.0.1:%d", first+i)
		}
		var binds int
		eps, binds, err = bindBlock(addrs)
		attempted += binds
		if err == nil {
			return eps, attempted, nil
		}
	}
	return nil, attempted, fmt.Errorf("no free port block after %d attempts: %w", bindAttempts, err)
}

// blockStart is the first port of the block an attempt tries.
func blockStart(e *env, n, attempt int) int {
	off := (uint64(e.seed)*131 + uint64(e.rep)*64 + uint64(attempt)*1021) % uint64(portSpan-n)
	return portBase + int(off)
}

// bindBlock listens on every address or on none.
func bindBlock(addrs []string) (eps []runtime.Endpoint, binds int, err error) {
	for i, addr := range addrs {
		peers := make(map[int]string, len(addrs)-1)
		for j, a := range addrs {
			if j != i {
				peers[j] = a
			}
		}
		binds++
		tn, err := runtime.NewTCPNet(i, addr, peers)
		if err != nil {
			closeAll(eps)
			return nil, binds, err
		}
		eps = append(eps, tn)
	}
	return eps, binds, nil
}

func closeAll(eps []runtime.Endpoint) {
	for _, ep := range eps {
		ep.Close()
	}
}

// runCluster executes one repetition of a live-runtime workload.
func runCluster(e *env, sizes clusterSizes) (*rep, error) {
	cfg := sizes.full
	if e.smoke {
		cfg = sizes.smoke
	}
	r := &rep{e2e: map[string]float64{}}
	lt := newLapTimer(e.gc)
	defer lt.stop()
	root := e.tr.begin("repetition", -1)
	defer e.tr.end(root)
	setup := e.tr.begin("setup", root)

	data, err := buildMLData(e, lt, setup, cfg.scale, cfg.nodes)
	if err != nil {
		return nil, err
	}
	n := cfg.nodes
	graph := topology.FullyConnected(n)

	sp := e.tr.begin("core.NewNode", setup)
	nodes := make([]*core.Node, n)
	initial := 0
	nodeSeed := e.seed
	if cfg.pinRNG {
		nodeSeed = corpusSeed
	}
	for i := range nodes {
		nodes[i] = core.NewNode(core.Config{
			ID: i, Mode: cfg.mode, Algo: gossip.DPSGD,
			StepsPerEpoch: cfg.steps, SharePoints: cfg.share, Seed: nodeSeed,
		}, newMF(), data.train[i], data.test[i])
		initial += nodes[i].Store.Len()
	}
	e.tr.end(sp)
	lt.mark()

	sp = e.tr.begin("runtime.NewNet", setup)
	var eps []runtime.Endpoint
	if cfg.tcp {
		var binds int
		eps, binds, err = bindTCP(e, n)
		r.attempted += binds
		if err != nil {
			r.violate("ms-tcp bind: %v", err)
			return r, nil
		}
	} else {
		eps = runtime.NewChanNet(n)
	}
	e.tr.end(sp)
	lt.mark()
	var closeOnce sync.Once
	closeEPs := func() { closeOnce.Do(func() { closeAll(eps) }) }
	defer closeEPs()

	// Two enclaves per simulated SGX machine, as in the paper's testbed.
	sp = e.tr.begin("attest.NewPlatform", setup)
	inf := attest.NewInfrastructure()
	platforms := make([]*attest.Platform, n)
	platEntropy := rand.New(rand.NewSource(e.seed))
	for i := range platforms {
		if i%2 == 0 {
			if platforms[i], err = inf.NewPlatform(platEntropy); err != nil {
				return nil, fmt.Errorf("platform: %w", err)
			}
		} else {
			platforms[i] = platforms[i-1]
		}
	}
	e.tr.end(sp)
	lt.mark()

	sp = e.tr.begin("runtime.NewEngine", setup)
	engines := make([]*runtime.Engine, n)
	for i := range engines {
		engines[i], err = runtime.NewEngine(runtime.Config{
			Node: nodes[i], Endpoint: eps[i], Neighbors: graph.Neighbors(i),
			Secure: true, Platform: platforms[i], Infra: inf,
			Measurement: enclaveMeasurement,
			Entropy:     rand.New(rand.NewSource(e.seed + int64(i) + 1000)),
			NewModel:    newMF,
		})
		if err != nil {
			return nil, fmt.Errorf("engine %d: %w", i, err)
		}
	}
	e.tr.end(sp)
	lt.mark()

	// Attestation is a conversation: every node starts at once.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := e.tr.begin("engine.Start", setup)
			errs[i] = engines[i].Start()
			e.tr.end(s)
			if errs[i] != nil {
				closeEPs() // unblock peers waiting on this node's quotes
			}
		}(i)
	}
	wg.Wait()
	lt.mark()

	// At one P nodes execute one after the other anyway; the harness
	// makes the order explicit. A node's gather needs only the frames
	// its peers sent in the previous round, so stepping the nodes in
	// turn on this goroutine never blocks for long, and every lap is
	// the same work in every repetition.
	epoch := func(parent int) {
		for i := range engines {
			if errs[i] != nil {
				return
			}
			s := e.tr.begin("engine.Step", parent)
			_, errs[i] = engines[i].Step()
			e.tr.end(s)
			lt.mark()
		}
	}
	epoch(setup)
	e.tr.end(setup)
	var w window
	w.open()
	r.setupLaps = lt.take()
	for ep := 1; ep < cfg.epochs; ep++ {
		es := e.tr.begin("epoch", root)
		epoch(es)
		e.tr.end(es)
	}
	r.windowLaps = lt.take()
	w.close(lt)
	if cfg.tcp {
		// The last round's frames are still crossing loopback; how many
		// have landed decides 10 % of the live heap. Let them all land.
		settle(eps)
		w.measureLive()
	}

	r.attempted += n * cfg.epochs
	for i, err := range errs {
		if err != nil {
			r.violate("node %d: %v", i, err)
		}
	}
	if r.failed > 0 {
		return r, nil
	}

	var tot runtime.Stats
	var rmse float64
	dups, stored := 0, 0
	for i, eng := range engines {
		eng.Stop()
		st := eng.Stats()
		rmse += st.FinalRMSE
		addStats(&tot, st)
		dups += nodes[i].Store.Duplicates()
		stored += nodes[i].Store.Len()
	}
	r.e2e["final_rmse"] = rmse / float64(n)
	r.e2e["wire_kb_per_epoch"] = kb(float64(tot.BytesOnWire)) / float64(cfg.epochs)
	// Every attestation quote carries ECDSA DER signatures whose encoded
	// length varies by a few bytes from run to run; nothing else may.
	r.wireSlackKB = kb(float64(quoteSlackBytes*n*(n-1))) / float64(cfg.epochs)
	if e.tr != nil {
		r.stage = runtimeStages(&tot, n*cfg.epochs, dups, stored-initial)
	}

	r.state = &nodeState{
		model: nodes[0].Model.(*mf.Model), ratings: nodes[0].Store.Snapshot(),
		test: nodes[0].Test, numItems: data.ds.NumItems, mode: cfg.mode,
	}
	r.recLaps = serveProbe(e, r, lt, root, r.state, cfg.probeCalls)
	r.record(&w, lt, cfg.epochs-1)
	return r, nil
}

// settle waits until no endpoint's inbox has grown for a few ms: every
// frame sent has then been delivered. It runs after the window's laps are
// taken, so the wait is not measured.
func settle(eps []runtime.Endpoint) {
	queued := func() (n int) {
		for _, ep := range eps {
			n += len(ep.Inbox())
		}
		return n
	}
	for prev, quiet := -1, 0; quiet < 3; {
		time.Sleep(2 * time.Millisecond)
		if n := queued(); n == prev {
			quiet++
		} else {
			prev, quiet = n, 0
		}
	}
}

// addStats folds one node's stage accumulators and wire counters into a
// cluster total (high-water marks take the maximum).
func addStats(tot, st *runtime.Stats) {
	tot.Merge += st.Merge
	tot.Train += st.Train
	tot.Share += st.Share
	tot.Test += st.Test
	tot.Seal += st.Seal
	tot.Open += st.Open
	tot.Wire += st.Wire
	tot.BytesOnWire += st.BytesOnWire
	tot.WireRawBytes += st.WireRawBytes
	tot.DeltaRefs += st.DeltaRefs
	tot.DeltaExplicit += st.DeltaExplicit
	tot.Resyncs += st.Resyncs
	tot.SendQueueHWM = max(tot.SendQueueHWM, st.SendQueueHWM)
	tot.PendingHWM = max(tot.PendingHWM, st.PendingHWM)
}

// stageUnits names every per-layer number that only a live repetition can
// produce, with its unit. A workload reports the ones of the layers it
// enters (runtimeStages here, the sim.* ones in simwl.go).
var stageUnits = map[string]string{
	"runtime.merge_ms": "ms", "runtime.train_ms": "ms", "runtime.share_ms": "ms", "runtime.test_ms": "ms",
	"runtime.seal_ms": "ms", "runtime.open_ms": "ms", "runtime.wire_ms": "ms",
	"runtime.delta_ref_ratio": "ratio", "runtime.wire_saving_ratio": "ratio",
	"runtime.resyncs": "count", "runtime.send_queue_hwm": "count", "runtime.pending_hwm": "count",
	"dataset.dup_ratio":  "ratio",
	"sim.first_epoch_ms": "ms", "sim.steady_epoch_ms": "ms", "sim.bytes_per_user": "B",
}

// runtimeStages turns the stage accumulators the runtime already keeps in
// Stats (summed over nodes) into per-node-epoch numbers.
func runtimeStages(tot *runtime.Stats, nodeEpochs, dups, fresh int) map[string]sample {
	ms := func(d time.Duration) sample {
		return sample{value: float64(d.Nanoseconds()) / 1e6 / float64(nodeEpochs), unit: "ms", n: nodeEpochs}
	}
	ratio := func(num, den float64, n int) sample {
		if den == 0 {
			return sample{unit: "ratio", n: n}
		}
		return sample{value: num / den, unit: "ratio", n: n}
	}
	sent := tot.DeltaRefs + tot.DeltaExplicit
	return map[string]sample{
		"runtime.merge_ms":          ms(tot.Merge),
		"runtime.train_ms":          ms(tot.Train),
		"runtime.share_ms":          ms(tot.Share),
		"runtime.test_ms":           ms(tot.Test),
		"runtime.seal_ms":           ms(tot.Seal),
		"runtime.open_ms":           ms(tot.Open),
		"runtime.wire_ms":           ms(tot.Wire),
		"runtime.delta_ref_ratio":   ratio(float64(tot.DeltaRefs), float64(sent), int(sent)),
		"runtime.wire_saving_ratio": ratio(float64(tot.WireRawBytes), float64(tot.BytesOnWire), nodeEpochs),
		"runtime.resyncs":           {value: float64(tot.Resyncs), unit: "count", n: nodeEpochs},
		"runtime.send_queue_hwm":    {value: float64(tot.SendQueueHWM), unit: "count", n: nodeEpochs},
		"runtime.pending_hwm":       {value: float64(tot.PendingHWM), unit: "count", n: nodeEpochs},
		"dataset.dup_ratio":         ratio(float64(dups), float64(dups+fresh), dups+fresh),
	}
}
