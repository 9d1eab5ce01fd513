package sim

import (
	"fmt"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/enclave"
	"rex/internal/faultnet"
	"rex/internal/model"
)

// engine holds one run's mutable state. Every cross-node slice is indexed
// by node id; during the parallel section of an epoch a worker touches only
// the slots of the node it is stepping, which is what makes the parallel
// path race-free and bit-identical to the sequential one.
type engine struct {
	cfg        Config
	n          int
	secPerFlop float64
	heapF      HeapFactors

	nodes    []*core.Node
	encl     []*enclave.Enclave
	clocks   []float64
	inbox    [][]message
	cumBytes []float64 // in+out per node, cumulative
	alive    []bool
	peakHeap []int64
	// deferred holds reorder-faulted messages for one extra barrier: a
	// message staged at epoch e normally joins inbox at the epoch-e
	// barrier (consumed at e+1); a reordered one joins at the e+1 barrier
	// instead (consumed at e+2, alongside that epoch's message).
	deferred [][]message

	// Per-epoch scratch, reused across epochs. results[i] is written only
	// by the worker stepping node i; rmse/rmseOK, payloadBuf and targetBuf
	// likewise. payloadBuf pools the merge-input views and targetBuf the
	// gossip target lists. Like inbox[i] and results[i].out they hold one
	// entry per neighbor, so newEngine sizes all four from the graph's
	// degree and the epoch loop allocates nothing per node for messages; a
	// duplicate fault that needs more grows them by append.
	results    []nodeResult
	rmse       []float64
	rmseOK     []bool
	payloadBuf [][]core.Payload
	targetBuf  [][]int

	pool     *pool
	res      *Result
	stageSum StageTimes
}

// nodeResult carries everything a node step produces beyond the node's own
// state: staged deliveries and the accounting terms that must be folded in
// ascending node-index order so parallel runs reproduce the sequential
// floating-point sums exactly.
type nodeResult struct {
	stage StageTimes
	bytes float64 // in+out traffic this epoch
	out   []delivery
	// events are this node's injected faults, folded into the run log in
	// node-index order at the barrier so the log is deterministic for any
	// Workers count.
	events []faultnet.Event
}

// delivery is one staged message awaiting the epoch barrier.
type delivery struct {
	to  int
	msg message
	// deferred marks a reorder-faulted message that skips one barrier.
	deferred bool
}

// Run executes the configured network and returns its metrics. The run is
// deterministic in Config.Seed, independent of Config.Workers.
func Run(cfg Config) (*Result, error) {
	n := cfg.Graph.N()
	if len(cfg.Train) != n || len(cfg.Test) != n {
		return nil, fmt.Errorf("sim: partitions (%d train, %d test) do not match %d nodes",
			len(cfg.Train), len(cfg.Test), n)
	}
	if cfg.Epochs <= 0 {
		return nil, fmt.Errorf("sim: epochs must be positive")
	}
	if cfg.TestEvery <= 0 {
		cfg.TestEvery = 1
	}
	if cfg.Net.BandwidthBps == 0 {
		cfg.Net = DefaultNet()
	}
	if cfg.SGX && cfg.Enclave.EPCBytes == 0 {
		cfg.Enclave = enclave.DefaultParams()
	}
	if cfg.Compute.SecPerFlop == 0 {
		cfg.Compute.SecPerFlop = 1e-9
	}
	if cfg.Scenario != nil {
		if err := cfg.Scenario.Validate(); err != nil {
			return nil, err
		}
	}

	eng := newEngine(cfg, n)
	defer eng.pool.close()
	for e := 0; e < cfg.Epochs; e++ {
		eng.runEpoch(e)
	}
	return eng.finish(), nil
}

// newEngine builds all per-node state and charges attestation bootstrap.
func newEngine(cfg Config, n int) *engine {
	eng := &engine{
		cfg:        cfg,
		n:          n,
		secPerFlop: cfg.Compute.SecPerFlop,
		heapF:      cfg.Heap.orDefault(),
		nodes:      make([]*core.Node, n),
		encl:       make([]*enclave.Enclave, n),
		clocks:     make([]float64, n),
		inbox:      make([][]message, n),
		cumBytes:   make([]float64, n),
		alive:      make([]bool, n),
		peakHeap:   make([]int64, n),
		deferred:   make([][]message, n),
		results:    make([]nodeResult, n),
		rmse:       make([]float64, n),
		rmseOK:     make([]bool, n),
		payloadBuf: make([][]core.Payload, n),
		targetBuf:  make([][]int, n),
		res:        &Result{Series: make([]EpochStats, 0, cfg.Epochs)},
	}
	for i := 0; i < n; i++ {
		eng.alive[i] = true
		eng.nodes[i] = core.NewNode(core.Config{
			ID:            i,
			Mode:          cfg.Mode,
			Algo:          cfg.Algo,
			StepsPerEpoch: cfg.StepsPerEpoch,
			SharePoints:   cfg.SharePoints,
			Seed:          cfg.Seed,
			Byzantine:     cfg.Byzantine[i],
		}, cfg.NewModel(i), cfg.Train[i], cfg.Test[i])
		eng.encl[i] = enclave.New(cfg.Enclave, cfg.SGX)
		eng.encl[i].SetHeap(nodeHeap(eng.nodes[i], eng.heapF, 0))
		d := cfg.Graph.Degree(i)
		eng.inbox[i] = make([]message, 0, d)
		eng.results[i].out = make([]delivery, 0, d)
		eng.payloadBuf[i] = make([]core.Payload, 0, d)
		eng.targetBuf[i] = make([]int, 0, d)
		if cfg.SGX {
			// Mutual attestation with every neighbor before any data
			// flows (§III-A); pairs overlap, so charge per neighbor.
			eng.clocks[i] = cfg.AttestSetupSec * float64(d)
			eng.res.Attestations += d
		}
	}
	eng.res.Attestations /= 2 // counted from both endpoints
	// Spawn the pool last: node construction above runs user callbacks
	// (cfg.NewModel), and a panic there must not leak worker goroutines —
	// Run's deferred close is only installed once newEngine returns.
	eng.pool = newPool(cfg.Workers)
	return eng
}

// finish assembles the Result after the last epoch.
func (eng *engine) finish() *Result {
	res := eng.res
	faultnet.SortEvents(res.FaultLog)
	for _, ev := range res.FaultLog {
		switch ev.Kind {
		case faultnet.KindDrop:
			res.Faults.Dropped++
		case faultnet.KindDelay:
			res.Faults.Delayed++
		case faultnet.KindDuplicate:
			res.Faults.Duplicated++
		case faultnet.KindReorder:
			res.Faults.Reordered++
		case faultnet.KindPartition:
			res.Faults.PartitionDrops++
			res.Faults.Dropped++
		case faultnet.KindLeave:
			res.Faults.Leaves++
		case faultnet.KindRejoin:
			res.Faults.Rejoins++
		}
	}
	last := res.Series[len(res.Series)-1]
	res.TotalTimeMean = last.TimeMean
	res.TotalTimeMax = last.TimeMax
	res.BytesPerNode = last.BytesPerNode
	res.Stage = eng.stageSum.scale(1 / float64(eng.cfg.Epochs))
	var heapSum float64
	for i := 0; i < eng.n; i++ {
		if eng.peakHeap[i] > res.PeakHeapBytes {
			res.PeakHeapBytes = eng.peakHeap[i]
		}
		heapSum += float64(eng.peakHeap[i])
	}
	res.MeanHeapBytes = heapSum / float64(eng.n)
	if eng.cfg.KeepState {
		res.Models = make([]model.Model, eng.n)
		res.Stores = make([][]dataset.Rating, eng.n)
		for i, nd := range eng.nodes {
			res.Models[i] = nd.Model
			res.Stores[i] = nd.Store.Snapshot()
		}
	}
	return res
}
