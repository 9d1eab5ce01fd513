// Package core implements the REX protocol itself — the enclaved
// merge-train-share-test loop of paper Algorithm 2 — as pure logic with no
// I/O or timing, so the same code drives both the deterministic simulator
// (internal/sim) and the live concurrent runtime (internal/runtime),
// mirroring the paper's single code base compiled for SGX and native
// (§III-E).
package core

import (
	"fmt"
	"math/rand"

	"rex/internal/dataset"
	"rex/internal/gossip"
	"rex/internal/model"
	"rex/internal/topology"
)

// Mode selects what nodes put on the wire.
type Mode int

const (
	// ModelSharing is the classical DLS baseline: nodes exchange model
	// parameters (MS in the paper's figures).
	ModelSharing Mode = iota
	// DataSharing is REX: nodes exchange sampled raw data points, which
	// is safe only because enclaves conceal them (DS/REX in the figures).
	DataSharing
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModelSharing:
		return "MS"
	case DataSharing:
		return "REX"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode converts a CLI name into a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "ms", "MS", "model":
		return ModelSharing, nil
	case "ds", "DS", "rex", "REX", "data":
		return DataSharing, nil
	}
	return 0, fmt.Errorf("core: unknown mode %q (want ms or rex)", s)
}

// Config parameterizes one node.
type Config struct {
	ID            int
	Mode          Mode
	Algo          gossip.Algo
	StepsPerEpoch int // fixed SGD steps per epoch (§III-E); <=0 = one full pass
	SharePoints   int // raw data points sampled per epoch (REX; §IV-A3)
	Seed          int64
	// Byzantine makes the node poison what it shares: attestation
	// guarantees honest *code*, but the paper is explicit that SGX does
	// not prevent subversion "through poisoned input data" (§IV-E-c).
	// A Byzantine node inverts the ratings it samples (v -> 5.5-v) and
	// ships a corrupted model in MS mode.
	Byzantine bool
}

// Payload is one gossip message's content after decryption: either model
// parameters (MS) or raw ratings (REX), plus the sender's degree, which
// D-PSGD receivers need for Metropolis–Hastings weighting (§III-C2).
//
// Receivers must treat Model and Data as read-only: under D-PSGD the
// sender builds one Payload per epoch and every neighbor gets the same
// clone, so several nodes may merge the same backing arrays concurrently
// when the simulator runs with Workers > 1. Model.MergeWeighted
// implementations honor this by never mutating their sources.
type Payload struct {
	From   int
	Degree int
	// Model carries the sender's model for MS. In the simulator it is a
	// shared read-only clone; in the live runtime it is deserialized from
	// the wire.
	Model model.Model
	// Data carries the sampled raw ratings for REX.
	Data []dataset.Rating
}

// MergeStats summarizes one merge step for metrics and cost accounting.
type MergeStats struct {
	ModelsMerged    int
	PointsAppended  int
	PointsDuplicate int
}

// Node is one REX participant's enclaved state: its model, its raw-data
// store (protected memory), and its private test set.
//
// A Node is self-contained: every method touches only the node's own
// model, store, test set and RNG, plus read-only views of its inputs
// (Payloads are snapshots of the sender's state — a model clone or a
// sampled copy of raw points — never live references). This is the
// invariant that lets the simulator step distinct nodes of one epoch
// concurrently (sim.Config.Workers) with bit-identical results; methods
// of a single Node are not safe for concurrent use.
type Node struct {
	Cfg   Config
	Model model.Model
	Store *dataset.Store
	Test  []dataset.Rating

	rng *rand.Rand
	scr shareScratch
}

// shareScratch pools the buffers Share hands out as payload snapshots, so
// a long run stops allocating per epoch once capacities plateau.
//
// The rotation depth is 3 and cannot be lower: a snapshot built at epoch e
// is read by receivers merging at e+1, and — when a reorder fault defers
// the message one barrier, or a duplicate rides along with it — as late as
// e+2. The builder's next two Share calls must therefore hand out other
// buffers; reuse at the third call (epoch e+3) happens strictly after the
// e+2 barrier, so no reader can observe it.
type shareScratch struct {
	models [3]model.Model      // MS payload snapshots (refreshed via model.Copier)
	data   [3][]dataset.Rating // DS payload samples
	idx    int
	perm   []int            // store-sampling scratch (one entry per sampled point)
	poison []dataset.Rating // Byzantine poisoned-sample scratch (local only)
}

// NewNode creates a node from its initial local partition (the data its
// user(s) produced) and its local test set. The node's RNG is the stream
// rand.NewSource would give for the seed mixed from cfg.Seed and cfg.ID,
// drawn from nodeSource, which seeds that stream several times faster and
// in a smaller object (see source.go).
func NewNode(cfg Config, m model.Model, train, test []dataset.Rating) *Node {
	return &Node{
		Cfg:   cfg,
		Model: m,
		Store: dataset.NewStore(train),
		Test:  test,
		rng:   rand.New(newSource(int64(uint64(cfg.Seed) ^ uint64(cfg.ID)*0x9E3779B97F4A7C15))),
	}
}

// RNG exposes the node's deterministic random source (the simulator uses
// it for peer selection so a whole run is reproducible from one seed). Its
// draws are math/rand's for the seed NewNode derives, bit for bit.
func (n *Node) RNG() *rand.Rand { return n.rng }

// Merge implements the merge step (Algorithm 2 lines 15-16): fold alien
// models into the local one (MS) and/or append alien raw data to the
// protected store (REX). selfDegree is this node's degree for MH weights.
func (n *Node) Merge(payloads []Payload, selfDegree int) MergeStats {
	var st MergeStats
	if len(payloads) == 0 {
		return st
	}
	switch n.Cfg.Mode {
	case ModelSharing:
		n.mergeModels(payloads, selfDegree)
		st.ModelsMerged = countModels(payloads)
	case DataSharing:
		before := n.Store.Duplicates()
		for _, p := range payloads {
			st.PointsAppended += n.Store.Append(p.Data)
		}
		st.PointsDuplicate = n.Store.Duplicates() - before
	}
	return st
}

func countModels(payloads []Payload) int {
	c := 0
	for _, p := range payloads {
		if p.Model != nil {
			c++
		}
	}
	return c
}

func (n *Node) mergeModels(payloads []Payload, selfDegree int) {
	switch n.Cfg.Algo {
	case gossip.RMW:
		// Gossip learning: average each arriving model pairwise with the
		// local one, in arrival order (§III-C1).
		for _, p := range payloads {
			if p.Model == nil {
				continue
			}
			n.Model.MergeWeighted(0.5, []model.Weighted{{M: p.Model, W: 0.5}})
		}
	case gossip.DPSGD:
		// Metropolis–Hastings weights from the degree pairs (§III-C2).
		others := make([]model.Weighted, 0, len(payloads))
		wsum := 0.0
		for _, p := range payloads {
			if p.Model == nil {
				continue
			}
			w := topology.MHWeight(selfDegree, p.Degree)
			others = append(others, model.Weighted{M: p.Model, W: w})
			wsum += w
		}
		if len(others) == 0 {
			return
		}
		n.Model.MergeWeighted(1-wsum, others)
	}
}

// Train implements the train step (Algorithm 2 line 17): a fixed number of
// SGD steps over the local store, so epoch time stays constant as the
// store grows (§III-E). With StepsPerEpoch <= 0 it instead sweeps the whole
// store once per epoch — the naive alternative the paper rejects because
// epoch time then grows with the store. It returns the steps actually run.
func (n *Node) Train() int {
	data := n.Store.Ratings()
	if len(data) == 0 {
		return 0
	}
	steps := n.Cfg.StepsPerEpoch
	if steps <= 0 {
		steps = len(data)
	}
	n.Model.Train(data, steps, n.rng)
	return steps
}

// Share implements the share step (Algorithm 2 lines 18-20): build the
// payload this node sends this epoch. For REX it is a stateless random
// sample of the store; for MS it is the current model. The returned
// payload is reused across all targets of the epoch (D-PSGD broadcasts the
// same content to every neighbor).
//
// A REX sample is drawn into a depth-3 rotation of pooled buffers (see
// shareScratch), so a caller may read it for at most two epochs after this
// call: the simulator's delivery horizon, reorder deferral included.
// retained signals that the caller keeps an MS payload past this call, as
// the simulator does: it then gets a model snapshot from the same
// rotation. The live runtime serializes the payload before its next Share
// and passes retained=false, getting the live model (zero-copy).
func (n *Node) Share(selfDegree int, retained bool) Payload {
	p := Payload{From: n.Cfg.ID, Degree: selfDegree}
	switch n.Cfg.Mode {
	case ModelSharing:
		if retained {
			p.Model = n.snapshotModel()
		} else {
			p.Model = n.Model
		}
		if n.Cfg.Byzantine {
			// Corrupt the outgoing copy by training it toward inverted
			// ratings; the local model stays intact so the attack is
			// covert.
			if !retained {
				p.Model = n.Model.Clone()
			}
			poisoned := n.Store.SampleAppend(n.scr.poison[:0], minInt(256, n.Store.Len()), n.rng, &n.scr.perm)
			n.scr.poison = poisoned
			for i := range poisoned {
				poisoned[i].Value = 5.5 - poisoned[i].Value
			}
			p.Model.Train(poisoned, 4*len(poisoned), n.rng)
		}
		// Freeze lazy layout before the payload leaves this goroutine: a
		// broadcast (D-PSGD) hands the same model pointer to every
		// neighbor, and their concurrent merges must find the
		// order-sensitive walks prebuilt, not race to build them.
		if c, ok := p.Model.(model.Canonicalizer); ok {
			c.Canonicalize()
		}
	case DataSharing:
		p.Data = n.Store.SampleAppend(n.scr.data[n.scr.idx][:0], n.Cfg.SharePoints, n.rng, &n.scr.perm)
		n.scr.data[n.scr.idx] = p.Data
		if n.Cfg.Byzantine {
			for i := range p.Data {
				p.Data[i].Value = 5.5 - p.Data[i].Value // invert the star scale
			}
		}
	}
	n.scr.idx = (n.scr.idx + 1) % len(n.scr.data)
	return p
}

// snapshotModel returns a read-only copy of the node's model from the
// pooled rotation: the slot's previous occupant is overwritten in place
// when the model supports model.Copier, falling back to a fresh Clone
// (which then seeds the slot) otherwise.
func (n *Node) snapshotModel() model.Model {
	if buf := n.scr.models[n.scr.idx]; buf != nil {
		if c, ok := buf.(model.Copier); ok && c.CopyFrom(n.Model) {
			return buf
		}
	}
	m := n.Model.Clone()
	n.scr.models[n.scr.idx] = m
	return m
}

// PayloadWireSize returns the encrypted-payload size in bytes for network
// accounting: the model serialization for MS, the packed triplets for REX,
// plus the small header carrying sender id and degree.
func PayloadWireSize(p Payload) int {
	const header = 12 // from(4) + degree(4) + kind(4)
	switch {
	case p.Model != nil:
		return header + p.Model.WireSize()
	default:
		return header + 4 + len(p.Data)*dataset.EncodedSize
	}
}

// TestRMSE implements the test step (Algorithm 2 line 21): RMSE of the
// current model over the node's private held-out ratings.
func (n *Node) TestRMSE() float64 { return model.RMSE(n.Model, n.Test) }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
