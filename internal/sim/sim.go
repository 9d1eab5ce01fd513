package sim

import (
	"math"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/enclave"
	"rex/internal/faultnet"
	"rex/internal/gossip"
	"rex/internal/model"
	"rex/internal/topology"
)

// Config describes one simulated run.
type Config struct {
	// Graph is the communication topology — a materialized *topology.Graph
	// or a streamed form (topology.SmallWorldStream) that derives neighbor
	// lists on demand, which is what makes 100k+ node runs affordable.
	Graph topology.Source
	Algo  gossip.Algo
	Mode  core.Mode

	Epochs        int
	StepsPerEpoch int // fixed SGD steps per epoch (§III-E); <=0 = full pass
	SharePoints   int // raw points sampled per epoch in REX mode

	// Workers bounds the goroutines stepping nodes within an epoch. Zero
	// (the default) uses GOMAXPROCS; 1 forces the sequential path. The
	// result is bit-identical for every value: within one epoch node i's
	// merge/train/share/test reads only the previous epoch's inbox and
	// node-i state, and all cross-node effects — message delivery and
	// floating-point accumulation of epoch statistics — are folded in
	// ascending node-index order after the parallel section.
	Workers int

	// FailAt injects permanent crash failures: node id -> epoch at which
	// it stops participating. The paper leaves failure handling to future
	// work (§III-D); the simulator models the oracle-detected case where
	// surviving neighbors simply stop waiting for the dead node.
	FailAt map[int]int
	// Byzantine marks nodes that poison their shared payloads (§IV-E-c:
	// attestation cannot stop poisoned *input data*).
	Byzantine map[int]bool
	// Scenario injects the epoch-level equivalents of the faultnet wire
	// faults: per-edge message drop, delay (virtual seconds added to the
	// arrival), duplication (the copy merges in the same barrier) and
	// reorder (the message joins the next barrier instead), scheduled
	// partitions, and leave/rejoin churn (generalizing FailAt, which
	// remains the permanent-crash special case). Every decision is a pure
	// function of (Scenario.Seed, edge, epoch), so runs stay bit-identical
	// for any Workers count, and Scenario.TimeoutMs charges the live
	// runtime's round-timeout wait whenever an expected message was
	// faulted away. Nil injects nothing.
	Scenario *faultnet.Scenario

	// NewModel constructs node i's initial model. All nodes must start
	// from identical parameters (attestation guarantees identical code),
	// so implementations should seed deterministically and identically.
	NewModel func(id int) model.Model
	// Train/Test hold each node's initial local partition and private
	// test set; both must have Graph.N() entries.
	Train [][]dataset.Rating
	Test  [][]dataset.Rating

	Net     NetParams
	Compute ComputeParams

	// SGX enables the enclave cost model; otherwise nodes run "native".
	SGX     bool
	Enclave enclave.Params
	// AttestSetupSec is charged once per neighbor pair at bootstrap when
	// SGX is on (mutual attestation handshake, §III-A).
	AttestSetupSec float64

	// Heap scales the components of the simulated trusted heap to account
	// for container/allocator overhead of the modeled implementation (the
	// paper's C++/Eigen/JSON stack keeps far more bytes per entry than
	// this package's packed wire formats). Zero values default to 1.
	Heap HeapFactors

	// KeepState retains every node's final model and raw-data store in
	// the Result, letting callers serve recommendations (rank.TopN) or
	// run store-based learners (knn) after the simulation.
	KeepState bool

	// TestEvery computes the RMSE every k epochs (1 = every epoch);
	// skipped epochs report NaN in the series but still charge test time
	// only when evaluated.
	TestEvery int

	// AfterEpoch, when set, is called on the driver goroutine after each
	// epoch's barrier with the epoch index — an observability hook (e.g.
	// host-heap measurement while the engine is resident). It must not
	// mutate simulation state; it has no effect on results.
	AfterEpoch func(epoch int)

	Seed int64
}

// StageTimes are per-epoch mean durations of the four protocol stages
// (virtual seconds) — the quantity behind Figs 5(a), 6(a), 7(a).
type StageTimes struct {
	Merge, Train, Share, Test float64
}

// Total returns the sum of all stages.
func (s StageTimes) Total() float64 { return s.Merge + s.Train + s.Share + s.Test }

func (s StageTimes) add(o StageTimes) StageTimes {
	return StageTimes{s.Merge + o.Merge, s.Train + o.Train, s.Share + o.Share, s.Test + o.Test}
}

func (s StageTimes) scale(f float64) StageTimes {
	return StageTimes{s.Merge * f, s.Train * f, s.Share * f, s.Test * f}
}

// EpochStats is one row of the result series.
type EpochStats struct {
	Epoch int
	// MeanRMSE is the nodes' mean test error after this epoch (NaN when
	// evaluation was skipped by TestEvery).
	MeanRMSE float64
	// TimeMean/TimeMax are node virtual clocks at the end of the epoch.
	TimeMean, TimeMax float64
	// BytesPerNode is the mean cumulative network volume (in+out) per
	// node up to and including this epoch — Fig 2 row 1.
	BytesPerNode float64
	// EpochBytesPerNode is the mean volume exchanged during this epoch
	// alone, per node alive this epoch — Fig 3 column 3 and Fig 5(b).
	EpochBytesPerNode float64
	// Stage holds this epoch's mean stage durations over alive nodes.
	Stage StageTimes
}

// Result aggregates a run.
type Result struct {
	Series []EpochStats
	// FinalRMSE is the last evaluated mean RMSE.
	FinalRMSE float64
	// TotalTimeMean/Max are the final virtual clocks.
	TotalTimeMean, TotalTimeMax float64
	// BytesPerNode is the mean total in+out volume per node.
	BytesPerNode float64
	// Stage is the mean per-epoch stage breakdown over the whole run.
	Stage StageTimes
	// PeakHeapBytes is the maximum simulated trusted-heap across nodes
	// (model + store + in-flight buffers) — the RAM column of Table IV.
	PeakHeapBytes int64
	// MeanHeapBytes averages nodes' peak heaps.
	MeanHeapBytes float64
	// Attestations counts mutual attestation handshakes performed.
	Attestations int
	// FailedNodes counts nodes that crashed during the run.
	FailedNodes int
	// Faults aggregates injected scenario faults; FaultLog lists every
	// injection in canonical order — two runs of the same (Config, seed)
	// produce identical logs, which the scenario conformance suite
	// asserts.
	Faults   faultnet.Counts
	FaultLog []faultnet.Event
	// Models/Stores hold each node's final model and raw-data store when
	// Config.KeepState is set (nil otherwise).
	Models []model.Model
	Stores [][]dataset.Rating
}

// TimeToRMSE returns the first virtual time (mean clock) at which the mean
// RMSE dropped to target or below, and true if reached — the measurement
// behind Tables II and III.
func (r *Result) TimeToRMSE(target float64) (float64, bool) {
	for _, e := range r.Series {
		if !math.IsNaN(e.MeanRMSE) && e.MeanRMSE <= target {
			return e.TimeMean, true
		}
	}
	return 0, false
}

// HeapFactors scale heap components: Model applies to model parameters,
// Store to raw ratings (train store + test set), Buffer to per-epoch
// message buffers (received copies and outbound serializations).
type HeapFactors struct {
	Model, Store, Buffer float64
}

func (h HeapFactors) orDefault() HeapFactors {
	if h.Model == 0 {
		h.Model = 1
	}
	if h.Store == 0 {
		h.Store = 1
	}
	if h.Buffer == 0 {
		h.Buffer = 1
	}
	return h
}

// PaperHeapFactors approximate the paper implementation's memory overhead
// (Eigen sparse containers, STL maps, JSON serialization buffers) relative
// to this package's packed formats; calibrated against the RAM column of
// Table IV (`rexbench -exp table4` prints it; TestSGXExperimentShape holds
// its shape).
func PaperHeapFactors() HeapFactors { return HeapFactors{Model: 8, Store: 2, Buffer: 16} }

// message is an in-flight gossip payload.
type message struct {
	payload core.Payload
	arrival float64 // virtual receive time
	bytes   int
}

// nodeHeap computes the simulated trusted-heap footprint of a node given
// the heap factors and this epoch's transient buffer bytes.
func nodeHeap(n *core.Node, f HeapFactors, bufferBytes int) int64 {
	modelB := float64(n.Model.WireSize()) * f.Model
	storeB := float64(n.Store.Bytes()+len(n.Test)*dataset.EncodedSize) * f.Store
	bufB := float64(bufferBytes) * f.Buffer
	return int64(modelB + storeB + bufB)
}
