// Package model defines the recommender-model contract shared by the two
// learners the paper evaluates (matrix factorization, §II-A-b, and the DNN
// recommender, §II-A-c), so the REX protocol (merge-train-share-test,
// Algorithm 2) is agnostic to which one is plugged in.
package model

import (
	"math"
	"math/rand"
	"sync"

	"rex/internal/dataset"
)

// Model is a trainable rating predictor.
//
// Train performs a fixed number of SGD steps on the provided data — the
// paper fixes the number of batches per epoch so epoch duration stays
// constant as the raw-data store grows (§III-E).
//
// Marshal serializes every parameter for model sharing; the byte length is
// exactly what a model-sharing node puts on the wire each epoch.
type Model interface {
	// Train runs `steps` SGD steps over the data, sampling with the rng.
	Train(data []dataset.Rating, steps int, rng *rand.Rand)
	// Predict returns the predicted rating for a (user, item) pair, using
	// whatever embeddings are known; unknown entities fall back to bias
	// terms or the global prior.
	Predict(user, item uint32) float32
	// Marshal serializes all parameters.
	Marshal() ([]byte, error)
	// Unmarshal replaces this model's parameters with the serialized ones.
	Unmarshal(b []byte) error
	// MergeWeighted folds alien models into this one: the receiver keeps
	// selfW of its own parameters and adds each alien model scaled by its
	// weight. Weights should sum to 1 with selfW. For parameters some
	// models lack (e.g. item embeddings never seen by a node), weights are
	// renormalized over the models that do have them (§III-C2: "when a
	// node has no embedding for a given user or item, we consider only
	// those of its neighbors").
	MergeWeighted(selfW float64, others []Weighted)
	// ParamCount returns the number of scalar parameters currently held.
	ParamCount() int
	// WireSize returns the paper's per-message charge for sharing this
	// model, without serializing — what the simulator charges to the
	// virtual network — and an upper bound on Marshal's length.
	WireSize() int
	// Clone returns an independent deep copy.
	Clone() Model
}

// Weighted pairs a model with its averaging weight (Metropolis–Hastings for
// D-PSGD, 1/2 for RMW pairwise averaging).
type Weighted struct {
	M Model
	W float64
}

// BatchPredictor is an optional Model extension: PredictBatch fills out[j]
// with exactly what Predict(users[j], items[j]) would return, amortizing
// per-call overhead (and, for the DNN, running one forward pass for the
// whole batch instead of one per example). The three slices must have
// equal length. RMSE uses it when available.
type BatchPredictor interface {
	PredictBatch(users, items []uint32, out []float32)
}

// ItemScorer is an optional Model extension for the ranking path, for a
// model that holds rows for some items and scores every other item alike.
// ScoreHeld resolves the user once and returns:
//   - held, the ids of the items the model holds rows for, in storage
//     order: a read-only view of the model's own storage, valid until the
//     model next changes. Item uint32(held[j]) is the j-th held item.
//   - scores, where scores[j] is exactly what Predict(user,
//     uint32(held[j])) returns, bit for bit. They are written into buf
//     when its capacity suffices, into a new array otherwise.
//   - cold, what Predict(user, item) returns for every item not in held.
//
// This holds whether or not the model knows the user. A ranking over a
// catalog then costs the model's rows, not the catalog's items.
type ItemScorer interface {
	ScoreHeld(user uint32, buf []float32) (held []int32, scores []float32, cold float32)
}

// AppendMarshaler is an optional Model extension: MarshalAppend appends
// the model's canonical serialization (identical bytes to Marshal) to dst
// and returns the extended slice, letting callers reuse buffers across
// epochs instead of allocating per share.
type AppendMarshaler interface {
	MarshalAppend(dst []byte) ([]byte, error)
}

// Canonicalizer is an optional Model extension for implementations whose
// order-sensitive read paths (Marshal, merging as a source) lazily build
// internal layout — e.g. a sparse table's ascending-id slot permutation.
// Canonicalize forces that layout fresh on the caller's goroutine, so a
// model about to be shared with several concurrent readers mutates
// nothing once published. It never changes observable state.
type Canonicalizer interface {
	Canonicalize()
}

// Copier is an optional Model extension for pooled snapshots: CopyFrom
// overwrites the receiver so it is indistinguishable from src.Clone(),
// reusing the receiver's backing storage. It returns false (receiver
// unspecified-but-safe to Clone over) when src's family or shape is
// incompatible; callers must fall back to src.Clone() in that case.
type Copier interface {
	CopyFrom(src Model) bool
}

// rmseBatch is the chunk size of the batched RMSE path: big enough to
// amortize batch dispatch, small enough that the id/pred scratch stays in
// L1.
const rmseBatch = 512

// rmseScratch is one RMSE call's id/pred scratch. It escapes through the
// BatchPredictor interface call, so it is pooled rather than declared per
// call (6 KB a call otherwise, from every node every epoch); a pool and not
// a field because the simulator evaluates nodes from several workers.
type rmseScratch struct {
	users, items [rmseBatch]uint32
	preds        [rmseBatch]float32
}

var rmsePool = sync.Pool{New: func() any { return new(rmseScratch) }}

// RMSE computes the root mean squared error of the model over the data,
// clamping predictions into the valid star range — the paper's test metric
// (§IV-A4). Models implementing BatchPredictor are evaluated in chunks of
// rmseBatch; the result is identical to the per-example path because
// predictions match Predict exactly and the error accumulation order is
// unchanged.
func RMSE(m Model, data []dataset.Rating) float64 {
	if len(data) == 0 {
		return 0
	}
	var se float64
	if bp, ok := m.(BatchPredictor); ok {
		s := rmsePool.Get().(*rmseScratch)
		for start := 0; start < len(data); start += rmseBatch {
			chunk := data[start:min(start+rmseBatch, len(data))]
			for i, r := range chunk {
				s.users[i], s.items[i] = r.User, r.Item
			}
			bp.PredictBatch(s.users[:len(chunk)], s.items[:len(chunk)], s.preds[:len(chunk)])
			for i, r := range chunk {
				se += clampedSqErr(s.preds[i], r.Value)
			}
		}
		rmsePool.Put(s)
	} else {
		for _, r := range data {
			se += clampedSqErr(m.Predict(r.User, r.Item), r.Value)
		}
	}
	return math.Sqrt(se / float64(len(data)))
}

// clampedSqErr clamps a prediction into the valid star range [0.5, 5.0]
// and returns its squared error against the observed rating.
func clampedSqErr(pred, want float32) float64 {
	p := float64(pred)
	if p < 0.5 {
		p = 0.5
	}
	if p > 5.0 {
		p = 5.0
	}
	d := p - float64(want)
	// float64(...) bars FMA contraction of d*d into the caller's `se +=`
	// after inlining on arm64, keeping reported RMSE identical across
	// architectures (see internal/vec's package doc).
	return float64(d * d)
}
