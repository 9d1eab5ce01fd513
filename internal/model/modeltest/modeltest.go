// Package modeltest is the conformance suite every model.Model
// implementation runs: one shared set of invariants over Predict /
// PredictBatch / ScoreHeld / Marshal / Unmarshal / MergeWeighted / Clone /
// WireSize,
// so the REX protocol can swap model families (§II-A) without re-deriving
// per-family tests. mf and nn both invoke Run from their own test
// packages; a new model family gets the whole battery with one call.
package modeltest

import (
	"math"
	"math/rand"
	"testing"

	"rex/internal/dataset"
	"rex/internal/model"
)

// Config describes the implementation under test.
type Config struct {
	// New constructs a fresh, untrained model. Every call must return an
	// identically-initialized instance (the attested-equal-start
	// property all REX nodes rely on).
	New func() model.Model
	// Data is a training sample whose user/item ids are all in
	// vocabulary for the implementation.
	Data []dataset.Rating
	// OOVUser/OOVItem are ids outside the model's vocabulary (for dense
	// id spaces) or simply unseen by training (for lazily-materialized
	// ones); Predict must fall back gracefully for them.
	OOVUser, OOVItem uint32
	// TrainSteps is how many SGD steps the suite trains where it needs a
	// non-trivial model.
	TrainSteps int
	// WireSizeBound says Marshal may come out shorter than WireSize, which
	// is then only an upper bound (a family whose encoding compresses, such
	// as mf's gap-coded ids, pins its exact length in its own tests).
	// Otherwise the suite requires the two to be equal.
	WireSizeBound bool
}

// Run executes the conformance suite.
func Run(t *testing.T, cfg Config) {
	if cfg.TrainSteps <= 0 {
		cfg.TrainSteps = 500
	}
	t.Run("EmptyPredictFallback", func(t *testing.T) { emptyPredictFallback(t, cfg) })
	t.Run("BatchMatchesScalar", func(t *testing.T) { batchMatchesScalar(t, cfg) })
	t.Run("ScoreItemsMatchesPredict", func(t *testing.T) { scoreItemsMatchesPredict(t, cfg) })
	t.Run("MarshalRoundtrip", func(t *testing.T) { marshalRoundtrip(t, cfg) })
	t.Run("MarshalAppendCanonical", func(t *testing.T) { marshalAppendCanonical(t, cfg) })
	t.Run("CloneIndependent", func(t *testing.T) { cloneIndependent(t, cfg) })
	t.Run("CopierErasesLayout", func(t *testing.T) { copierErasesLayout(t, cfg) })
	t.Run("MergeSelfIdempotent", func(t *testing.T) { mergeSelfIdempotent(t, cfg) })
	t.Run("RMSEClampEdges", func(t *testing.T) { rmseClampEdges(t, cfg) })
}

func trained(t *testing.T, cfg Config) model.Model {
	t.Helper()
	m := cfg.New()
	m.Train(cfg.Data, cfg.TrainSteps, rand.New(rand.NewSource(17)))
	return m
}

// pairs returns probe (user, item) pairs: the training data's own pairs
// plus out-of-vocabulary combinations.
func pairs(cfg Config) (users, items []uint32) {
	n := min(len(cfg.Data), 256)
	for _, r := range cfg.Data[:n] {
		users = append(users, r.User)
		items = append(items, r.Item)
	}
	users = append(users, cfg.OOVUser, cfg.OOVUser, cfg.Data[0].User)
	items = append(items, cfg.OOVItem, cfg.Data[0].Item, cfg.OOVItem)
	return users, items
}

// emptyPredictFallback: a fresh model must answer any (user, item) —
// including out-of-vocabulary ids — with a finite prediction, and its
// batch path must agree with the scalar path bit for bit.
func emptyPredictFallback(t *testing.T, cfg Config) {
	m := cfg.New()
	users, items := pairs(cfg)
	for i := range users {
		p := m.Predict(users[i], items[i])
		if math.IsNaN(float64(p)) || math.IsInf(float64(p), 0) {
			t.Fatalf("empty model Predict(%d, %d) = %v", users[i], items[i], p)
		}
	}
	if bp, ok := m.(model.BatchPredictor); ok {
		out := make([]float32, len(users))
		bp.PredictBatch(users, items, out)
		for i := range users {
			if want := m.Predict(users[i], items[i]); math.Float32bits(out[i]) != math.Float32bits(want) {
				t.Fatalf("empty model batch[%d] = %v, scalar = %v", i, out[i], want)
			}
		}
	}
}

// batchMatchesScalar: after training, PredictBatch must reproduce Predict
// exactly for every element, in-vocabulary and out.
func batchMatchesScalar(t *testing.T, cfg Config) {
	m := trained(t, cfg)
	bp, ok := m.(model.BatchPredictor)
	if !ok {
		t.Skip("model does not implement BatchPredictor")
	}
	users, items := pairs(cfg)
	out := make([]float32, len(users))
	bp.PredictBatch(users, items, out)
	for i := range users {
		want := m.Predict(users[i], items[i])
		if math.Float32bits(out[i]) != math.Float32bits(want) {
			t.Fatalf("batch[%d] (user %d item %d) = %v, scalar = %v",
				i, users[i], items[i], out[i], want)
		}
	}
}

// scoreItemsMatchesPredict: the item scores ranking reads must reproduce
// Predict bit for bit, for known and out-of-vocabulary users, over
// catalogs cut below and stretched past the model's highest item id — on a
// fresh model, a trained one, and models whose internal layout Unmarshal
// and MergeWeighted rebuilt. For a model.ItemScorer those are its held
// rows, each scoring as Predict, and the cold score, which Predict must
// give every other catalog id; ScoreHeld allocates nothing on a warm
// buffer. Any other model is ranked through PredictBatch over the whole
// catalog for one user, which must match Predict item by item.
func scoreItemsMatchesPredict(t *testing.T, cfg Config) {
	m := trained(t, cfg)
	_, scorer := m.(model.ItemScorer)
	if _, batch := m.(model.BatchPredictor); !scorer && !batch {
		t.Skip("model implements neither ItemScorer nor BatchPredictor")
	}
	maxItem := 0
	for _, r := range cfg.Data {
		maxItem = max(maxItem, int(r.Item))
	}
	same := func(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }
	check := func(name string, m model.Model) {
		t.Helper()
		for _, user := range []uint32{cfg.Data[0].User, cfg.Data[len(cfg.Data)-1].User, cfg.OOVUser} {
			for _, n := range []int{0, maxItem/2 + 1, maxItem + 1, maxItem + 300} {
				if !scorer {
					users, items, out := make([]uint32, n), make([]uint32, n), make([]float32, n)
					for i := range items {
						users[i], items[i] = user, uint32(i)
					}
					m.(model.BatchPredictor).PredictBatch(users, items, out)
					for i, got := range out {
						if want := m.Predict(user, uint32(i)); !same(got, want) {
							t.Fatalf("%s model, user %d, %d-item catalog: PredictBatch[%d] = %v, Predict = %v",
								name, user, n, i, got, want)
						}
					}
					continue
				}
				s := m.(model.ItemScorer)
				// A reused buffer's contents must not survive; the short ones
				// are outgrown.
				stale := make([]float32, n)
				for i := range stale {
					stale[i] = -77
				}
				held, scores, cold := s.ScoreHeld(user, stale)
				if len(scores) != len(held) {
					t.Fatalf("%s model: %d held ids, %d scores", name, len(held), len(scores))
				}
				isHeld := make(map[uint32]bool, len(held))
				for j, id := range held {
					item := uint32(id)
					if isHeld[item] {
						t.Fatalf("%s model: item %d held twice", name, item)
					}
					isHeld[item] = true
					if want := m.Predict(user, item); !same(scores[j], want) {
						t.Fatalf("%s model, user %d: held item %d scores %v, Predict = %v",
							name, user, item, scores[j], want)
					}
				}
				for i := 0; i < n; i++ {
					if want := m.Predict(user, uint32(i)); !isHeld[uint32(i)] && !same(cold, want) {
						t.Fatalf("%s model, user %d, %d-item catalog: unheld item %d Predict = %v, cold score %v",
							name, user, n, i, want, cold)
					}
				}
				if allocs := testing.AllocsPerRun(5, func() { s.ScoreHeld(user, scores) }); allocs != 0 {
					t.Fatalf("%s model: ScoreHeld on a warm buffer allocates %.1f times", name, allocs)
				}
			}
		}
	}
	check("fresh", cfg.New())
	check("trained", m)

	buf, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	restored := cfg.New()
	if err := restored.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	check("unmarshaled", restored)

	// A receiver that trained on a corner of the data learns the rest from
	// the merge, which appends those rows in merge order, not touch order.
	merged := cfg.New()
	merged.Train(cfg.Data[:len(cfg.Data)/8+1], cfg.TrainSteps/4+1, rand.New(rand.NewSource(19)))
	merged.MergeWeighted(0.5, []model.Weighted{{M: m, W: 0.5}})
	check("merged", merged)
}

// marshalRoundtrip: WireSize must equal the marshaled length (bound it,
// for a WireSizeBound family), a fresh model must adopt the bytes exactly
// (bitwise-equal predictions), and re-marshaling must be canonical.
func marshalRoundtrip(t *testing.T, cfg Config) {
	m := trained(t, cfg)
	buf, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > m.WireSize() || !cfg.WireSizeBound && len(buf) != m.WireSize() {
		t.Fatalf("WireSize %d, marshaled %d", m.WireSize(), len(buf))
	}
	if m.ParamCount() <= 0 {
		t.Fatal("trained model reports no parameters")
	}
	m2 := cfg.New()
	if err := m2.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	users, items := pairs(cfg)
	for i := range users {
		a, b := m.Predict(users[i], items[i]), m2.Predict(users[i], items[i])
		if math.Float32bits(a) != math.Float32bits(b) {
			t.Fatalf("prediction differs after roundtrip: %v vs %v", a, b)
		}
	}
	buf2, err := m2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(buf2) {
		t.Fatal("serialization not canonical")
	}
}

// marshalAppendCanonical: the zero-copy path must produce exactly the
// Marshal bytes, both onto a nil buffer and appended after a prefix into
// reused capacity of exactly WireSize past the prefix.
func marshalAppendCanonical(t *testing.T, cfg Config) {
	m := trained(t, cfg)
	am, ok := m.(model.AppendMarshaler)
	if !ok {
		t.Skip("model does not implement AppendMarshaler")
	}
	want, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := am.MarshalAppend(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("MarshalAppend(nil) differs from Marshal")
	}
	prefix := []byte{0xAA, 0xBB, 0xCC}
	reused := make([]byte, len(prefix), len(prefix)+m.WireSize())
	copy(reused, prefix)
	got2, err := am.MarshalAppend(reused)
	if err != nil {
		t.Fatal(err)
	}
	if &got2[0] != &reused[0] {
		t.Fatal("MarshalAppend reallocated despite sufficient capacity")
	}
	if string(got2[:len(prefix)]) != string(prefix) || string(got2[len(prefix):]) != string(want) {
		t.Fatal("MarshalAppend after prefix corrupted the buffer")
	}
}

// cloneIndependent: training a clone must not disturb the original.
func cloneIndependent(t *testing.T, cfg Config) {
	m := trained(t, cfg)
	users, items := pairs(cfg)
	before := make([]float32, len(users))
	for i := range users {
		before[i] = m.Predict(users[i], items[i])
	}
	c := m.Clone()
	c.Train(cfg.Data, cfg.TrainSteps, rand.New(rand.NewSource(18)))
	for i := range users {
		if got := m.Predict(users[i], items[i]); math.Float32bits(got) != math.Float32bits(before[i]) {
			t.Fatalf("training a clone mutated the original: %v vs %v", got, before[i])
		}
	}
}

// copierErasesLayout: for implementations with a pooled-buffer CopyFrom
// path, copying into a destination with its own history — different data,
// different internal materialization order, different backing-array
// capacities — must serialize byte-identically to the source. This is
// what lets sparse layouts keep entity rows in touch order internally:
// whatever layout the destination had before must be invisible on the
// wire afterwards.
func copierErasesLayout(t *testing.T, cfg Config) {
	src := trained(t, cfg)
	dst := cfg.New()
	cp, ok := dst.(model.Copier)
	if !ok {
		t.Skip("model does not implement model.Copier")
	}
	// Give dst a distinct history: reversed data order changes which
	// entities materialize first in a lazily-allocated implementation.
	rev := make([]dataset.Rating, len(cfg.Data))
	for i, r := range cfg.Data {
		rev[len(rev)-1-i] = r
	}
	dst.Train(rev, cfg.TrainSteps/2+1, rand.New(rand.NewSource(23)))
	if !cp.CopyFrom(src) {
		t.Fatal("CopyFrom rejected a same-config source")
	}
	want, err := src.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := dst.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("CopyFrom destination serializes differently from source")
	}
	users, items := pairs(cfg)
	for i := range users {
		a, b := src.Predict(users[i], items[i]), dst.Predict(users[i], items[i])
		if math.Float32bits(a) != math.Float32bits(b) {
			t.Fatalf("prediction differs after CopyFrom: %v vs %v", a, b)
		}
	}
}

// mergeSelfIdempotent: averaging a model with its own clone must leave
// predictions essentially unchanged (float rounding only).
func mergeSelfIdempotent(t *testing.T, cfg Config) {
	m := trained(t, cfg)
	c := m.Clone()
	m.MergeWeighted(0.5, []model.Weighted{{M: c, W: 0.5}})
	users, items := pairs(cfg)
	for i := range users {
		a, b := m.Predict(users[i], items[i]), c.Predict(users[i], items[i])
		if d := float64(a - b); math.Abs(d) > 1e-4 {
			t.Fatalf("self-merge moved prediction %d: %v vs %v", i, a, b)
		}
	}
}

// offsetModel shifts a base model's predictions by a constant, driving
// them outside the valid star range so RMSE's clamping edges are
// exercised with the real implementation underneath (satisfying the
// clamp-coverage requirement per model family, not just with a stub).
type offsetModel struct {
	model.Model
	off float32
}

func (o offsetModel) Predict(u, i uint32) float32 { return o.Model.Predict(u, i) + o.off }

func (o offsetModel) PredictBatch(users, items []uint32, out []float32) {
	if bp, ok := o.Model.(model.BatchPredictor); ok {
		bp.PredictBatch(users, items, out)
		for i := range out {
			out[i] += o.off
		}
		return
	}
	for i := range out {
		out[i] = o.Predict(users[i], items[i])
	}
}

// rmseClampEdges: predictions pushed far above 5.0 clamp to 5.0 and far
// below 0.5 clamp to 0.5, for both the scalar and the batched RMSE path.
func rmseClampEdges(t *testing.T, cfg Config) {
	m := trained(t, cfg)
	data := []dataset.Rating{
		{User: cfg.Data[0].User, Item: cfg.Data[0].Item, Value: 5.0},
		{User: cfg.Data[min(1, len(cfg.Data)-1)].User, Item: cfg.Data[min(1, len(cfg.Data)-1)].Item, Value: 5.0},
	}
	// +1000 drives any sane prediction above the 5.0 clamp: zero error.
	if got := model.RMSE(offsetModel{m, 1000}, data); got != 0 {
		t.Fatalf("high-clamp RMSE = %v, want 0", got)
	}
	for i := range data {
		data[i].Value = 0.5
	}
	if got := model.RMSE(offsetModel{m, -1000}, data); got != 0 {
		t.Fatalf("low-clamp RMSE = %v, want 0", got)
	}
	// Mixed: clamped-to-5 predictions against 3-star ratings err by
	// exactly 2 each.
	for i := range data {
		data[i].Value = 3
	}
	if got := model.RMSE(offsetModel{m, 1000}, data); math.Abs(got-2) > 1e-12 {
		t.Fatalf("clamped RMSE = %v, want 2", got)
	}
}
