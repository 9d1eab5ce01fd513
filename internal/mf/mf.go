// Package mf implements the biased matrix-factorization recommender of
// paper §II-A-b: rank-k user/item embeddings X, Y with bias vectors b, c,
// trained by SGD on the regularized squared loss
//
//	1/2 Σ (a_ij − b_i − c_j − x_i·y_j)² + λ/2 (‖X‖² + ‖Y‖²)
//
// Predictions are p_ij = x_i·y_j + b_i + c_j. Hyperparameters follow
// §IV-A3a: η = 0.005, λ = 0.1, k = 10.
//
// Storage is sparse: factor rows live densely packed in slot order with a
// compact id→slot hash index on top, so a node's memory is proportional to
// the users/items it has actually trained on or merged in — never to the
// highest id it has ever seen. Marshaling walks ids in ascending order, so
// the wire format is byte-identical to the earlier dense-table layout, and
// initial embeddings stay a pure function of (seed, id), so trajectories
// are bit-identical regardless of storage layout or touch order.
package mf

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"rex/internal/dataset"
	"rex/internal/model"
	"rex/internal/vec"
)

// Config holds MF hyperparameters.
type Config struct {
	K            int     // embedding dimension (paper: 10; Fig 3 sweeps 10..50)
	LearningRate float64 // SGD step size η (paper: 0.005)
	Reg          float64 // regularization λ (paper: 0.1)
	InitStd      float64 // std-dev of embedding initialization
	GlobalMean   float64 // prior used for cold predictions
	Seed         int64   // seed for parameter initialization
}

// DefaultConfig returns the paper's MF hyperparameters (§IV-A3a).
func DefaultConfig() Config {
	return Config{K: 10, LearningRate: 0.005, Reg: 0.1, InitStd: 0.1, GlobalMean: 3.5, Seed: 7}
}

// idIndex is a table's id→slot index: an open-addressing hash — linear
// probing from the multiplicative hash's low bits, power-of-two capacity,
// at most 3/4 full, no deletion. A cell is four bytes and holds no id: it
// is the id's 32-bit hash with the low lg(len(cells)) bits replaced by
// slot+1 (0 = empty; slot+1 < len(cells) follows from the load bound). A
// probe step matches when the cell's tag bits equal the hash's, and every
// match is confirmed against ids[slot] before it is returned, so a tag
// collision costs one extra load and can never yield a wrong slot. Growth
// re-derives every cell from ids, in slot order: the tag is one bit
// shorter after each doubling, so cells cannot be copied.
//
// That is 5.3–10.7 bytes of index per row, half of what a cell of two
// int32 (id+1 beside the slot) held. Cells with the slot alone are no
// smaller and compare ids[slot] at every occupied probe step; a 32-bit tag
// beside a 32-bit slot saves nothing over the pair it would replace.
type idIndex struct {
	cells []uint32 // hash&^mask | slot+1; 0 = empty
}

// idHash is Knuth's multiplicative hash. The multiplier is odd, so the
// hash is a bijection on 32 bits: two ids with equal tags never share a
// home cell.
func idHash(id int32) uint32 { return uint32(id) * 2654435761 }

// get returns id's slot in ids, the slot→id array the index was built over.
func (x *idIndex) get(ids []int32, id int32) (int32, bool) {
	if len(x.cells) == 0 {
		return 0, false
	}
	mask := uint32(len(x.cells) - 1)
	h := idHash(id)
	for i := h & mask; ; i = (i + 1) & mask {
		c := x.cells[i]
		if c == 0 {
			return 0, false
		}
		if (c^h)&^mask == 0 {
			if slot := int32(c&mask) - 1; ids[slot] == id {
				return slot, true
			}
		}
	}
}

// add indexes the last element of ids, which must be absent.
func (x *idIndex) add(ids []int32) {
	if 4*len(ids) > 3*len(x.cells) {
		x.cells = make([]uint32, max(16, 2*len(x.cells)))
		for slot, id := range ids {
			x.place(id, slot)
		}
		return
	}
	x.place(ids[len(ids)-1], len(ids)-1)
}

// place writes the cell of an id known to be absent.
func (x *idIndex) place(id int32, slot int) {
	mask := uint32(len(x.cells) - 1)
	h := idHash(id)
	i := h & mask
	for x.cells[i] != 0 {
		i = (i + 1) & mask
	}
	x.cells[i] = h&^mask | uint32(slot+1)
}

// reserve empties the index and sizes it for n entries up front, so the
// adds that follow never rehash. An array that can already hold n entries
// at the load bound is cleared and kept.
func (x *idIndex) reserve(n int) {
	if 3*len(x.cells) >= 4*n {
		clear(x.cells)
		return
	}
	c := 16
	for 3*c < 4*n {
		c *= 2
	}
	x.cells = make([]uint32, c)
}

func (x *idIndex) copyFrom(src *idIndex) {
	x.cells = append(x.cells[:0], src.cells...)
}

// table is one side's sparse storage (users or items): factor rows packed
// back to back in materialization order, biases and entity ids alongside,
// and an id→slot index for lookups. An ascending-id slot permutation is
// maintained lazily for the order-sensitive walks (marshal, merge).
type table struct {
	k       int
	seed    uint64
	initStd float32
	f       []float32 // count*k packed factor rows, slot-major
	b       []float32 // count per-slot biases
	ids     []int32   // count slot -> entity id
	idx     idIndex   // entity id -> slot

	order      []int32 // slots in ascending-id order; valid when !orderStale
	orderStale bool
	maxID      int // 1 + highest present id (0 when empty)
}

func newTable(k int, seed uint64, initStd float64) *table {
	return &table{k: k, seed: seed, initStd: float32(initStd)}
}

func (t *table) count() int { return len(t.ids) }

// slot returns where id's row is stored.
func (t *table) slot(id int32) (int32, bool) { return t.idx.get(t.ids, id) }

func (t *table) has(id int) bool {
	_, ok := t.slot(int32(id))
	return ok
}

// reserve empties the table and makes room for n rows, so that appending
// n ascending ids allocates nothing more. Unmarshal uses it on a receiver
// that is decoded into again and again: arrays whose capacity suffices are
// kept; otherwise all are reallocated with headroom, because a peer's model
// is a little larger every epoch (the rule of internal/runtime's grow).
func (t *table) reserve(n int) {
	if cap(t.ids) < n || cap(t.b) < n || cap(t.order) < n || cap(t.f) < n*t.k {
		c := n + n/8
		t.f = make([]float32, 0, c*t.k)
		t.b = make([]float32, 0, c)
		t.ids = make([]int32, 0, c)
		t.order = make([]int32, 0, c)
	}
	t.f, t.b, t.ids, t.order = t.f[:0], t.b[:0], t.ids[:0], t.order[:0]
	t.orderStale, t.maxID = false, 0
	t.idx.reserve(n)
}

// appendRow adds a zeroed row for a not-yet-present id and returns its slot.
func (t *table) appendRow(id int) int32 {
	slot := int32(len(t.ids))
	n := len(t.f)
	if cap(t.f) < n+t.k {
		grown := make([]float32, n, 2*n+16*t.k)
		copy(grown, t.f)
		t.f = grown
	}
	t.f = t.f[:n+t.k]
	vec.Zero(t.f[n:])
	t.b = append(t.b, 0)
	t.ids = append(t.ids, int32(id))
	t.idx.add(t.ids)
	if !t.orderStale {
		if id >= t.maxID {
			t.order = append(t.order, slot)
		} else {
			t.orderStale = true
		}
	}
	if id+1 > t.maxID {
		t.maxID = id + 1
	}
	return slot
}

// ordered returns the slots in ascending entity-id order, rebuilding the
// permutation only when out-of-order materializations invalidated it.
// Unmarshal and merge materialize ids ascending, so their appends keep the
// permutation valid for free; only random-order training touches pay a sort.
func (t *table) ordered() []int32 {
	if t.orderStale || len(t.order) != len(t.ids) {
		t.order = t.order[:0]
		for s := range t.ids {
			t.order = append(t.order, int32(s))
		}
		sort.Slice(t.order, func(i, j int) bool { return t.ids[t.order[i]] < t.ids[t.order[j]] })
		t.orderStale = false
	}
	return t.order
}

// row returns the factor row stored at slot.
func (t *table) row(slot int32) []float32 {
	return t.f[int(slot)*t.k : (int(slot)+1)*t.k]
}

// vec materializes (if needed) and returns the factor row for id.
func (t *table) vec(id int) []float32 {
	if s, ok := t.slot(int32(id)); ok {
		return t.row(s)
	}
	return t.materialize(id)
}

// materialize appends and seeds the row for id. The initial vector is a
// pure function of (seed, id), so two models with equal seeds materialize
// identical embeddings regardless of touch order — mirroring attested
// enclaves sharing initial state.
func (t *table) materialize(id int) []float32 {
	row := t.row(t.appendRow(id))
	h := t.seed ^ uint64(id)*0x9E3779B97F4A7C15
	for d := range row {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		// Uniform in [-sqrt(3), sqrt(3)) * std has variance std^2.
		// Spelled /2^52 rather than the equivalent /2^53*2: powers of
		// two make the two forms bit-identical, but the *2 form gave
		// the arm64 compiler a multiply to contract into the -1 (an
		// FMA skips the intermediate rounding), which would give init
		// embeddings different bits than the amd64-recorded golden
		// trajectories — a division cannot be contracted (see
		// internal/vec's package doc).
		u := float32(h>>11)/float32(1<<52) - 1
		row[d] = u * 1.7320508 * t.initStd
	}
	return row
}

func (t *table) clone() *table {
	c := &table{k: t.k, seed: t.seed, initStd: t.initStd, maxID: t.maxID, orderStale: t.orderStale}
	c.f = append([]float32(nil), t.f...)
	c.b = append([]float32(nil), t.b...)
	c.ids = append([]int32(nil), t.ids...)
	if !t.orderStale {
		c.order = append([]int32(nil), t.order...)
	}
	c.idx.copyFrom(&t.idx)
	return c
}

// copyFrom overwrites t with src's contents, reusing t's backing arrays.
func (t *table) copyFrom(src *table) {
	t.k, t.seed, t.initStd, t.maxID = src.k, src.seed, src.initStd, src.maxID
	t.f = append(t.f[:0], src.f...)
	t.b = append(t.b[:0], src.b...)
	t.ids = append(t.ids[:0], src.ids...)
	t.order = append(t.order[:0], src.order...)
	t.orderStale = src.orderStale
	t.idx.copyFrom(&src.idx)
}

// Model is a biased MF model.
type Model struct {
	cfg   Config
	users *table
	items *table
}

var _ model.Model = (*Model)(nil)

// New creates an empty MF model. Embeddings materialize lazily the first
// time a user/item is touched by training, merging, or unmarshaling.
func New(cfg Config) *Model {
	if cfg.K <= 0 {
		panic("mf: K must be positive")
	}
	return &Model{
		cfg:   cfg,
		users: newTable(cfg.K, uint64(cfg.Seed)*2654435761+1, cfg.InitStd),
		items: newTable(cfg.K, uint64(cfg.Seed)*2654435761+2, cfg.InitStd),
	}
}

// Config returns the model's hyperparameters.
func (m *Model) Config() Config { return m.cfg }

// trainBatch is how many rating indices Train draws per kernel sweep:
// large enough to amortize the sampling loop, small enough that the index
// buffer stays in L1.
const trainBatch = 512

// Train runs `steps` plain SGD steps, each on one rating drawn uniformly
// from data. Fixing steps (rather than sweeping all data) keeps epoch time
// constant as the raw-data store grows, exactly the paper's device in
// §III-E. Steps are processed in batches: each batch's rating indices are
// sampled up front (the rng draw order is identical to the one-at-a-time
// loop) and then applied through the fused vec kernels; because every
// kernel is bit-identical to its scalar loop and updates stay strictly
// sequential, the trajectory matches the pre-batching implementation bit
// for bit (pinned by TestGoldenTrajectory).
func (m *Model) Train(data []dataset.Rating, steps int, rng *rand.Rand) {
	if len(data) == 0 || steps <= 0 {
		return
	}
	k := m.cfg.K
	lr := float32(m.cfg.LearningRate)
	reg := float32(m.cfg.Reg)
	mean := float32(m.cfg.GlobalMean)
	users, items := m.users, m.items
	var idx [trainBatch]int
	for remaining := steps; remaining > 0; {
		bsz := min(trainBatch, remaining)
		batch := idx[:bsz]
		drawIndices(batch, rng, len(data))
		for _, ix := range batch {
			r := data[ix]
			us, ok := users.slot(int32(r.User))
			if !ok {
				users.materialize(int(r.User))
				us, _ = users.slot(int32(r.User))
			}
			is, ok := items.slot(int32(r.Item))
			if !ok {
				items.materialize(int(r.Item))
				is, _ = items.slot(int32(r.Item))
			}
			x := users.f[int(us)*k : (int(us)+1)*k]
			y := items.f[int(is)*k : (int(is)+1)*k]
			users.b[us], items.b[is] = vec.FusedSGDStep(
				x, y, r.Value, mean, users.b[us], items.b[is], lr, reg)
		}
		remaining -= bsz
	}
}

// Predict returns the estimated rating, falling back to bias-only or the
// global mean for unseen entities.
func (m *Model) Predict(user, item uint32) float32 {
	return m.predictOne(int(user), int(item))
}

// PredictBatch implements model.BatchPredictor: out[j] receives exactly
// what Predict(users[j], items[j]) would return.
func (m *Model) PredictBatch(users, items []uint32, out []float32) {
	if len(users) != len(items) || len(users) != len(out) {
		panic("mf: predict batch length mismatch")
	}
	for j := range out {
		out[j] = m.predictOne(int(users[j]), int(items[j]))
	}
}

// ScoreItems implements model.ItemScorer: out[i] receives exactly what
// Predict(user, i) would return. The user is resolved once; every item
// starts at the cold score mean (+ b_u), and one walk over the packed item
// table in slot order overwrites the items the model holds. The sums keep
// predictOne's association, ((mean + b_u) + b_i) + x_u·y_i, so the bits
// match.
func (m *Model) ScoreItems(user uint32, out []float32) {
	cold := float32(m.cfg.GlobalMean)
	var x []float32 // the user's factors; nil for a user the model lacks
	if us, ok := m.users.slot(int32(user)); ok {
		cold += m.users.b[us]
		x = m.users.row(us)
	}
	for i := range out {
		out[i] = cold
	}
	items, k := m.items, m.cfg.K
	for s, id := range items.ids {
		if int(uint32(id)) >= len(out) { // as Predict's uint32 sees the id
			continue
		}
		p := cold + items.b[s]
		if x != nil {
			p += vec.Dot(x, items.f[s*k:(s+1)*k])
		}
		out[id] = p
	}
}

func (m *Model) predictOne(u, it int) float32 {
	p := float32(m.cfg.GlobalMean)
	us, hasU := m.users.slot(int32(u))
	is, hasI := m.items.slot(int32(it))
	if hasU {
		p += m.users.b[us]
	}
	if hasI {
		p += m.items.b[is]
	}
	if hasU && hasI {
		p += vec.Dot(m.users.row(us), m.items.row(is))
	}
	return p
}

// ParamCount returns the number of scalar parameters held: (k+1) per known
// user plus (k+1) per known item.
func (m *Model) ParamCount() int {
	return (m.cfg.K + 1) * (m.users.count() + m.items.count())
}

// WireSize implements model.Model: the exact Marshal output length.
func (m *Model) WireSize() int {
	rec := 4 + 4 + 4*m.cfg.K
	return 16 + rec*(m.users.count()+m.items.count())
}

// NumUsers returns how many distinct users the model has embeddings for.
func (m *Model) NumUsers() int { return m.users.count() }

// NumItems returns how many distinct items the model has embeddings for.
func (m *Model) NumItems() int { return m.items.count() }

// Clone returns a deep copy sharing no state.
func (m *Model) Clone() model.Model {
	return &Model{cfg: m.cfg, users: m.users.clone(), items: m.items.clone()}
}

// CopyFrom implements model.Copier: it overwrites m with src's parameters
// while reusing m's backing arrays, so a pooled share buffer refreshed
// every epoch stops allocating once its capacity plateaus.
func (m *Model) CopyFrom(src model.Model) bool {
	o, ok := src.(*Model)
	if !ok || o.cfg != m.cfg {
		return false
	}
	m.users.copyFrom(o.users)
	m.items.copyFrom(o.items)
	return true
}

// Canonicalize implements model.Canonicalizer: it rebuilds the lazy
// ascending-id slot permutations now, on the caller's goroutine. A shared
// payload model must be canonicalized before publication — mergeTables
// and emitTable call ordered() on source tables, and that rebuild is a
// mutation that several receivers merging the same payload concurrently
// must never perform themselves.
func (m *Model) Canonicalize() {
	m.users.ordered()
	m.items.ordered()
}

// MergeWeighted implements model.Model. For each entity, the result is the
// weight-normalized average over the models that actually hold it
// (§III-C2: "when a node has no embedding for a given user or item, we
// consider only those of its neighbors").
func (m *Model) MergeWeighted(selfW float64, others []model.Weighted) {
	userTabs := make([]*table, 0, len(others))
	itemTabs := make([]*table, 0, len(others))
	ws := make([]float32, 0, len(others))
	for _, o := range others {
		om, ok := o.M.(*Model)
		if !ok || om.cfg.K != m.cfg.K {
			continue // incompatible model; cannot average across families
		}
		userTabs = append(userTabs, om.users)
		itemTabs = append(itemTabs, om.items)
		ws = append(ws, float32(o.W))
	}
	if len(ws) == 0 {
		return
	}
	mergeTables(m.users, float32(selfW), userTabs, ws)
	mergeTables(m.items, float32(selfW), itemTabs, ws)
}

// mergeTables folds the source tables into dst in a single ascending-id
// union walk over the tables' ordered slot permutations: each id's
// source-presence set is computed once from the walk cursors and replayed
// through the vec kernels. The id visit order (ascending) and the per-id
// accumulation order — dst scaled first, then each source added in peer
// order — match the dense implementation exactly, so merges stay
// bit-identical to the recorded golden trajectories.
func mergeTables(dst *table, selfW float32, srcs []*table, ws []float32) {
	dstOrd := dst.ordered()
	dpos := 0
	sOrd := make([][]int32, len(srcs))
	pos := make([]int, len(srcs))
	match := make([]bool, len(srcs))
	total := len(dstOrd)
	for i, s := range srcs {
		sOrd[i] = s.ordered()
		total += len(sOrd[i])
	}
	if total == 0 {
		return
	}
	// New dst rows materialize in ascending id order during the walk.
	// dstOrd views dst.order's pre-merge prefix; in-order appends extend
	// past it and cannot disturb the walk.
	for {
		const none = int32(math.MaxInt32)
		id := none
		if dpos < len(dstOrd) {
			id = dst.ids[dstOrd[dpos]]
		}
		for i, s := range srcs {
			if pos[i] < len(sOrd[i]) {
				if v := s.ids[sOrd[i][pos[i]]]; v < id {
					id = v
				}
			}
		}
		if id == none {
			break
		}
		dstHas := dpos < len(dstOrd) && dst.ids[dstOrd[dpos]] == id
		var wsum float32
		if dstHas {
			wsum = selfW
		}
		anyAlien := false
		for si, s := range srcs {
			hit := pos[si] < len(sOrd[si]) && s.ids[sOrd[si][pos[si]]] == id
			match[si] = hit
			if hit {
				wsum += ws[si]
				anyAlien = true
			}
		}
		if anyAlien && wsum != 0 {
			var dslot int32
			if dstHas {
				dslot = dstOrd[dpos]
			} else {
				dslot = dst.appendRow(int(id)) // zeroed row, marked present
			}
			drow := dst.row(dslot)
			var bias float32
			if dstHas {
				w := selfW / wsum
				vec.Scale(w, drow)
				bias = dst.b[dslot] * w
			}
			for si, s := range srcs {
				if !match[si] {
					continue
				}
				w := ws[si] / wsum
				ss := sOrd[si][pos[si]]
				vec.AddScaled(drow, s.row(ss), w)
				// float32(...) bars FMA contraction on arm64 (golden merge
				// hashes are recorded on amd64 — see internal/vec's doc).
				bias += float32(w * s.b[ss])
			}
			dst.b[dslot] = bias
		}
		if dstHas {
			dpos++
		}
		for si := range srcs {
			if match[si] {
				pos[si]++
			}
		}
	}
}

const magic = uint32(0x5245584d) // "REXM"

// maxEntityID bounds user/item ids accepted off the wire (see Unmarshal).
const maxEntityID = 1 << 24

// Marshal serializes the model: magic, K, user count, item count, then
// (id, bias, k floats) records for present users then items, in id order —
// deterministic, so identical models serialize identically.
func (m *Model) Marshal() ([]byte, error) { return m.MarshalAppend(nil) }

// MarshalAppend implements model.AppendMarshaler: it appends the canonical
// serialization to dst and returns the extended slice, growing dst at most
// once. With a reused (or correctly pre-sized) buffer the model's bytes
// are written in place — no append staging, no scratch copies, no per-call
// allocation — which is what a model-sharing node pays per neighbor per
// epoch.
func (m *Model) MarshalAppend(dst []byte) ([]byte, error) {
	need := m.WireSize()
	start := len(dst)
	if cap(dst)-start < need {
		grown := make([]byte, start+need)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:start+need]
	}
	buf := dst[start:]
	binary.LittleEndian.PutUint32(buf, magic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(m.cfg.K))
	binary.LittleEndian.PutUint32(buf[8:], uint32(m.users.count()))
	binary.LittleEndian.PutUint32(buf[12:], uint32(m.items.count()))
	off := emitTable(buf, 16, m.users)
	emitTable(buf, off, m.items)
	return dst, nil
}

// emitTable writes a table's present records at buf[off:] in ascending id
// order and returns the offset past the last one. A top-level function
// (not a closure) so the write cursor stays in a register on the
// serialization hot path.
func emitTable(buf []byte, off int, t *table) int {
	k := t.k
	for _, slot := range t.ordered() {
		binary.LittleEndian.PutUint32(buf[off:], uint32(t.ids[slot]))
		binary.LittleEndian.PutUint32(buf[off+4:], math.Float32bits(t.b[slot]))
		o := off + 8
		for _, x := range t.f[int(slot)*k : (int(slot)+1)*k] {
			binary.LittleEndian.PutUint32(buf[o:], math.Float32bits(x))
			o += 4
		}
		off = o
	}
	return off
}

// Unmarshal replaces the model's parameters with the serialized ones. The
// serialized K must match the receiver's configuration, and each section's
// record ids must be strictly increasing — Marshal's canonical order — so
// duplicated or reordered records are rejected as corruption. The whole
// buffer is validated before the receiver is touched: on error it is left
// unchanged. On success it is overwritten in place, reusing its arrays when
// they are large enough, and is indistinguishable from a fresh decode — a
// receiver that decodes a peer's model every epoch stops allocating once
// its capacity covers that model.
func (m *Model) Unmarshal(b []byte) error {
	if len(b) < 16 {
		return fmt.Errorf("mf: buffer too short (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint32(b) != magic {
		return fmt.Errorf("mf: bad magic %#x", binary.LittleEndian.Uint32(b))
	}
	k := int(binary.LittleEndian.Uint32(b[4:]))
	if k != m.cfg.K {
		return fmt.Errorf("mf: serialized K=%d, model K=%d", k, m.cfg.K)
	}
	nu := int(binary.LittleEndian.Uint32(b[8:]))
	ni := int(binary.LittleEndian.Uint32(b[12:]))
	rec := 4 + 4 + 4*k
	need := 16 + rec*(nu+ni)
	if len(b) != need {
		return fmt.Errorf("mf: buffer %d bytes, want %d", len(b), need)
	}
	users, items := b[16:16+rec*nu], b[16+rec*nu:]
	if err := checkSection(users, nu, rec); err != nil {
		return err
	}
	if err := checkSection(items, ni, rec); err != nil {
		return err
	}
	m.users.load(users, rec)
	m.items.load(items, rec)
	return nil
}

// checkSection validates the ids of one section's n records.
func checkSection(b []byte, n, rec int) error {
	if n == 0 {
		return nil
	}
	// Marshal emits records in strictly increasing id order, so the
	// section's last record carries its highest id. (The sparse layout
	// allocates by record count, not by id, so a huge id is no
	// decompression bomb — the bound is kept as a wire-compatibility sanity
	// check: real id spaces here are ~10^4-10^5, anything wildly beyond is
	// corruption.)
	last := int(binary.LittleEndian.Uint32(b[(n-1)*rec:]))
	if last > maxEntityID {
		return fmt.Errorf("mf: implausible entity id %d", last)
	}
	prev := -1
	for i := 0; i < n; i++ {
		id := int(binary.LittleEndian.Uint32(b[i*rec:]))
		if id <= prev || id > last {
			return fmt.Errorf("mf: record %d id %d violates strict id order (previous %d, section max %d)", i, id, prev, last)
		}
		prev = id
	}
	return nil
}

// load overwrites t with one validated section of rec-byte records.
func (t *table) load(b []byte, rec int) {
	t.reserve(len(b) / rec)
	for ; len(b) > 0; b = b[rec:] {
		slot := t.appendRow(int(binary.LittleEndian.Uint32(b)))
		t.b[slot] = math.Float32frombits(binary.LittleEndian.Uint32(b[4:]))
		row := t.row(slot)
		src := b[8:rec]
		for d := range row {
			row[d] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*d:]))
		}
	}
}
