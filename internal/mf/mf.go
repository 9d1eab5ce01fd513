// Package mf implements the biased matrix-factorization recommender of
// paper §II-A-b: rank-k user/item embeddings X, Y with bias vectors b, c,
// trained by SGD on the regularized squared loss
//
//	1/2 Σ (a_ij − b_i − c_j − x_i·y_j)² + λ/2 (‖X‖² + ‖Y‖²)
//
// Predictions are p_ij = x_i·y_j + b_i + c_j. Hyperparameters follow
// §IV-A3a: η = 0.005, λ = 0.1, k = 10.
//
// Storage is sparse: each user or item the model holds is one record of
// k+1 words, its bias then its k factors (the paper's record without its
// id). Records lie densely packed in slot order with a compact id→slot
// hash index on top, so a node's memory is proportional to the users/items
// it has actually trained on or merged in — never to the highest id it has
// ever seen. The wire carries the same records verbatim, in ascending id
// order, with the ids apart in gap-coded columns (see Marshal), so the
// encoding does not depend on storage layout either; initial embeddings
// are a pure function of (seed, id), so trajectories are bit-identical
// regardless of storage layout or touch order.
package mf

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"

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

// table is one side's sparse storage (users or items): records packed back
// to back in materialization order, entity ids alongside, and an id→slot
// index for lookups. A record is k+1 words, the bias then the k factors:
// SGD updates the two together, a merge averages them together through one
// kernel call, and marshal copies them out as one run. Only grow allocates
// rec and ids, always together at the same row capacity, so one table
// growth costs two allocations and cap(rec) == (k+1)·cap(ids) holds
// throughout. An ascending-id slot permutation is maintained lazily for the
// order-sensitive walks (marshal, merge).
type table struct {
	k       int
	seed    uint64
	initStd float32
	rec     []float32 // count records of k+1 words (bias, factors), slot-major
	ids     []int32   // count slot -> entity id, in lockstep with rec
	idx     idIndex   // entity id -> slot

	order      []int32 // slots in ascending-id order; valid when !orderStale
	orderStale bool
	maxID      int // 1 + highest present id (0 when empty)
}

func newTable(k int, seed uint64, initStd float64) *table {
	return &table{k: k, seed: seed, initStd: float32(initStd)}
}

func (t *table) count() int { return len(t.ids) }

// slot returns where id's record is stored.
func (t *table) slot(id int32) (int32, bool) { return t.idx.get(t.ids, id) }

// reserve empties the table and makes room for n rows, so that appending
// n ascending ids allocates nothing more. Unmarshal uses it on a receiver
// that is decoded into again and again: arrays whose capacity suffices are
// kept; otherwise all are reallocated with headroom, because a peer's model
// is a little larger every epoch (the rule of internal/runtime's grow).
func (t *table) reserve(n int) {
	t.rec, t.ids, t.order = t.rec[:0], t.ids[:0], t.order[:0]
	if cap(t.ids) < n || cap(t.order) < n {
		c := n + n/8
		t.grow(c)
		t.order = make([]int32, 0, c)
	}
	t.orderStale, t.maxID = false, 0
	t.idx.reserve(n)
}

// grow moves rec and ids, contents kept, to new arrays of c rows each.
func (t *table) grow(c int) {
	rec := make([]float32, len(t.rec), c*(t.k+1))
	copy(rec, t.rec)
	ids := make([]int32, len(t.ids), c)
	copy(ids, t.ids)
	t.rec, t.ids = rec, ids
}

// appendRow adds a zeroed record for a not-yet-present id and returns its
// slot.
func (t *table) appendRow(id int) int32 {
	slot := int32(len(t.ids))
	if len(t.ids) == cap(t.ids) {
		t.grow(2*len(t.ids) + 16)
	}
	n := len(t.rec)
	t.rec = t.rec[:n+t.k+1]
	vec.Zero(t.rec[n:])
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
// permutation valid for free; only random-order training touches pay a sort,
// and the sort allocates nothing (ids are unique, so no two slots tie).
func (t *table) ordered() []int32 {
	if t.orderStale || len(t.order) != len(t.ids) {
		t.order = t.order[:0]
		for s := range t.ids {
			t.order = append(t.order, int32(s))
		}
		ids := t.ids
		slices.SortFunc(t.order, func(a, b int32) int { return cmp.Compare(ids[a], ids[b]) })
		t.orderStale = false
	}
	return t.order
}

// record returns the record stored at slot: the bias, then the factors.
func (t *table) record(slot int32) []float32 {
	w := t.k + 1
	return t.rec[int(slot)*w : (int(slot)+1)*w]
}

// row returns the factors stored at slot.
func (t *table) row(slot int32) []float32 { return t.record(slot)[1:] }

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
	c.grow(len(t.ids))
	c.rec = append(c.rec, t.rec...)
	c.ids = append(c.ids, t.ids...)
	if !t.orderStale {
		c.order = append([]int32(nil), t.order...)
	}
	c.idx.copyFrom(&t.idx)
	return c
}

// copyFrom overwrites t with src's contents, reusing t's backing arrays.
// Arrays that are too small are replaced with the headroom reserve gives.
func (t *table) copyFrom(src *table) {
	t.k, t.seed, t.initStd, t.maxID = src.k, src.seed, src.initStd, src.maxID
	t.rec, t.ids = t.rec[:0], t.ids[:0]
	if n := len(src.ids); cap(t.ids) < n {
		t.grow(n + n/8)
	}
	t.rec = append(t.rec, src.rec...)
	t.ids = append(t.ids, src.ids...)
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
	w := m.cfg.K + 1
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
			ur := users.rec[int(us)*w : (int(us)+1)*w]
			ir := items.rec[int(is)*w : (int(is)+1)*w]
			ur[0], ir[0] = vec.FusedSGDStep(
				ur[1:], ir[1:], r.Value, mean, ur[0], ir[0], lr, reg)
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

// ScoreHeld implements model.ItemScorer over the item table: scores[s]
// is what Predict(user, uint32(ids[s])) returns for the item in slot s,
// and cold, mean (+ b_u), what it returns for every item the model lacks.
// The user is resolved once, and one walk over the packed item records in
// slot order (vec.ScoreRows for a held user) writes each score by slot.
// The sums keep predictOne's association, ((mean + b_u) + b_i) + x_u·y_i,
// so the bits match. Only rec and ids are read, never the lazy ordered()
// permutation, so concurrent queries on a published model write nothing
// shared.
func (m *Model) ScoreHeld(user uint32, buf []float32) ([]int32, []float32, float32) {
	cold := float32(m.cfg.GlobalMean)
	var x []float32 // the user's factors; nil for a user the model lacks
	if us, ok := m.users.slot(int32(user)); ok {
		ur := m.users.record(us)
		cold += ur[0]
		x = ur[1:]
	}
	items, w := m.items, m.cfg.K+1
	n := items.count()
	if cap(buf) < n {
		// Headroom: the caller keeps buf for the next query, and a served
		// model grows a little every epoch.
		buf = make([]float32, n, 2*n)
	}
	scores := buf[:n]
	if x == nil {
		for s := range scores {
			scores[s] = cold + items.rec[s*w]
		}
	} else {
		vec.ScoreRows(scores, x, items.rec, w, cold)
	}
	return items.ids, scores, cold
}

func (m *Model) predictOne(u, it int) float32 {
	p := float32(m.cfg.GlobalMean)
	us, hasU := m.users.slot(int32(u))
	is, hasI := m.items.slot(int32(it))
	var ur, ir []float32
	if hasU {
		ur = m.users.record(us)
		p += ur[0]
	}
	if hasI {
		ir = m.items.record(is)
		p += ir[0]
	}
	if hasU && hasI {
		p += vec.Dot(ur[1:], ir[1:])
	}
	return p
}

// ParamCount returns the number of scalar parameters held: (k+1) per known
// user plus (k+1) per known item.
func (m *Model) ParamCount() int {
	return (m.cfg.K + 1) * (m.users.count() + m.items.count())
}

// WireSize implements model.Model: the paper's per-message charge, a
// 16-byte header and per row its record with a four-byte id (§II-A-b). It
// is an upper bound on Marshal's length, which gap-codes the ids.
func (m *Model) WireSize() int {
	rec := 4 + 4 + 4*m.cfg.K
	return 16 + rec*(m.users.count()+m.items.count())
}

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
// and Marshal call ordered() on source tables, and that rebuild is a
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
// source-presence set is computed once from the walk cursors and each
// id's whole record, bias and factors, is replayed through the vec kernels.
// The id visit order (ascending) and the per-id accumulation order — dst
// scaled first, then each source added in peer order — match the dense
// implementation exactly, and the kernels round every product before its
// sum as the scalar bias loop did, so merges stay bit-identical to the
// recorded golden trajectories.
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
	// New dst records materialize in ascending id order during the walk.
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
				dslot = dst.appendRow(int(id)) // zeroed record, marked present
			}
			drec := dst.record(dslot)
			if dstHas {
				vec.Scale(selfW/wsum, drec)
			}
			for si, s := range srcs {
				if match[si] {
					vec.AddScaled(drec, s.record(sOrd[si][pos[si]]), ws[si]/wsum)
				}
			}
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

// magic opens the current encoding ("REM2" in its four bytes). magicV1
// opened the retired one, whose records each carried their id in front;
// Unmarshal names it in its refusal rather than calling it garbage.
const (
	magic   = uint32(0x324d4552)
	magicV1 = uint32(0x5245584d)
)

// maxEntityID bounds the user/item ids a model encodes (see Marshal and
// Unmarshal).
const maxEntityID = 1 << 24

// Marshal serializes the model as a record block followed by id columns:
//
//	[magic][K][user count nu][item count ni]
//	[nu·(k+1) f32: user records, ascending id, each bias then factors]
//	[ni·(k+1) f32: item records, ascending id]
//	[nu uvarints: user ids][ni uvarints: item ids]
//
// A column's first uvarint is its first id, each later one the gap
// id − previous − 1, so ids are strictly increasing by construction. The
// output is deterministic — identical models serialize identically — and
// no longer than WireSize: an id is at most maxEntityID, so every gap fits
// four bytes. A model holding an id outside [0, maxEntityID] has no
// encoding; Marshal refuses it.
func (m *Model) Marshal() ([]byte, error) { return m.MarshalAppend(nil) }

// MarshalAppend implements model.AppendMarshaler: it appends the canonical
// serialization to dst and returns the extended slice, growing dst at most
// once. Room for WireSize bytes is reserved and the slice trimmed to the
// bytes written, so with a reused (or pre-sized) buffer the model's bytes
// are written in place — no staging, no scratch, no per-call allocation —
// which is what a model-sharing node pays per neighbor per epoch.
func (m *Model) MarshalAppend(dst []byte) ([]byte, error) {
	for _, t := range [2]*table{m.users, m.items} {
		if ord := t.ordered(); len(ord) > 0 {
			if lo, hi := t.ids[ord[0]], t.ids[ord[len(ord)-1]]; lo < 0 || hi > maxEntityID {
				return dst, fmt.Errorf("mf: entity ids %d..%d outside the encodable 0..%d", lo, hi, maxEntityID)
			}
		}
	}
	need := m.WireSize()
	start := len(dst)
	if cap(dst)-start < need {
		grown := make([]byte, start, start+need)
		copy(grown, dst)
		dst = grown
	}
	buf := dst[start : start+need]
	binary.LittleEndian.PutUint32(buf, magic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(m.cfg.K))
	binary.LittleEndian.PutUint32(buf[8:], uint32(m.users.count()))
	binary.LittleEndian.PutUint32(buf[12:], uint32(m.items.count()))
	off := emitRecords(buf, 16, m.users)
	off = emitRecords(buf, off, m.items)
	off = emitIDs(buf, off, m.users)
	off = emitIDs(buf, off, m.items)
	return dst[:start+off], nil
}

// emitRecords writes a table's records at buf[off:] in ascending id order,
// each verbatim, and returns the offset past the last one. Top-level
// functions (not closures) keep the write cursor in a register on the
// serialization hot path.
func emitRecords(buf []byte, off int, t *table) int {
	w := t.k + 1
	for _, slot := range t.ordered() {
		for _, x := range t.rec[int(slot)*w : (int(slot)+1)*w] {
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(x))
			off += 4
		}
	}
	return off
}

// emitIDs writes a table's id column at buf[off:] and returns the offset
// past it.
func emitIDs(buf []byte, off int, t *table) int {
	prev := int32(-1)
	for _, slot := range t.ordered() {
		id := t.ids[slot]
		off += binary.PutUvarint(buf[off:], uint64(id-prev-1))
		prev = id
	}
	return off
}

// Unmarshal replaces the model's parameters with the serialized ones. The
// serialized K must match the receiver's configuration; the record block
// must fit the buffer before anything is sized to it; and the id columns
// must be exactly nu+ni minimal uvarints naming ids no larger than
// maxEntityID, with no byte after them — so every accepted buffer is the
// one Marshal makes of the decoded model. A buffer of the retired v1
// encoding is refused by name. The whole buffer is validated before the
// receiver is touched: on error it is left unchanged. On success it is
// overwritten in place, reusing its arrays when they are large enough, and
// is indistinguishable from a fresh decode — a receiver that decodes a
// peer's model every epoch stops allocating once its capacity covers that
// model.
func (m *Model) Unmarshal(b []byte) error {
	if len(b) < 16 {
		return fmt.Errorf("mf: buffer too short (%d bytes)", len(b))
	}
	switch v := binary.LittleEndian.Uint32(b); v {
	case magic:
	case magicV1:
		return fmt.Errorf("mf: retired v1 model encoding (ids inside the records); this build reads only v2")
	default:
		return fmt.Errorf("mf: bad magic %#x", v)
	}
	k := int(binary.LittleEndian.Uint32(b[4:]))
	if k != m.cfg.K {
		return fmt.Errorf("mf: serialized K=%d, model K=%d", k, m.cfg.K)
	}
	nu := uint64(binary.LittleEndian.Uint32(b[8:]))
	ni := uint64(binary.LittleEndian.Uint32(b[12:]))
	rec := 4 * (k + 1)
	// Every row takes its record and at least one id byte.
	if nu+ni > uint64(len(b)-16)/uint64(rec+1) {
		return fmt.Errorf("mf: %d+%d rows of %d-byte records overrun the %d-byte buffer", nu, ni, rec, len(b))
	}
	userEnd := 16 + rec*int(nu)
	block := userEnd + rec*int(ni)
	cols := b[block:]
	un, err := checkSection(cols, int(nu))
	if err != nil {
		return fmt.Errorf("mf: user ids: %w", err)
	}
	in, err := checkSection(cols[un:], int(ni))
	if err != nil {
		return fmt.Errorf("mf: item ids: %w", err)
	}
	if un+in != len(cols) {
		return fmt.Errorf("mf: %d bytes after the id columns", len(cols)-un-in)
	}
	m.users.load(b[16:userEnd], cols[:un])
	m.items.load(b[userEnd:block], cols[un:un+in])
	return nil
}

// checkSection validates one id column of n uvarints at the front of b and
// returns its length in bytes. Gaps cannot make a duplicate or a descent,
// so what is left to check is the encoding itself: each uvarint complete
// and minimal (no padding byte such as 0x80 0x00, which would give one
// model two encodings), and each id at most maxEntityID. (The sparse
// layout allocates by row count, not by id, so a huge id is no
// decompression bomb; real id spaces here are ~10^4–10^5, and the bound
// keeps every gap within the four bytes WireSize charges for an id.)
func checkSection(b []byte, n int) (int, error) {
	off, id := 0, -1
	for i := 0; i < n; i++ {
		gap, w := binary.Uvarint(b[off:])
		if w <= 0 {
			return 0, fmt.Errorf("row %d: uvarint cut short or overflowing", i)
		}
		if w > 1 && b[off+w-1] == 0 {
			return 0, fmt.Errorf("row %d: overlong uvarint", i)
		}
		if gap > maxEntityID || id+1+int(gap) > maxEntityID {
			return 0, fmt.Errorf("row %d: implausible entity id %d", i, uint64(id+1)+gap)
		}
		id += 1 + int(gap)
		off += w
	}
	return off, nil
}

// load overwrites t with one validated section: its record block and id
// column.
func (t *table) load(recs, ids []byte) {
	n := len(recs) / (4 * (t.k + 1))
	t.reserve(n)
	rec := t.rec[:len(recs)/4]
	for i := range rec {
		rec[i] = math.Float32frombits(binary.LittleEndian.Uint32(recs[4*i:]))
	}
	t.rec = rec
	id := int32(-1)
	for slot := int32(0); slot < int32(n); slot++ {
		gap, w := binary.Uvarint(ids)
		ids = ids[w:]
		id += 1 + int32(gap)
		t.ids = append(t.ids, id)
		t.idx.add(t.ids)
		t.order = append(t.order, slot)
	}
	t.maxID = int(id) + 1
}
