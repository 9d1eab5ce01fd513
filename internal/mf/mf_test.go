package mf

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"rex/internal/dataset"
	"rex/internal/model"
	"rex/internal/movielens"
)

func trainingData(t testing.TB) *dataset.Dataset {
	t.Helper()
	spec := movielens.Latest().Scaled(0.05)
	spec.Seed = 77
	return movielens.Generate(spec)
}

func TestTrainReducesError(t *testing.T) {
	ds := trainingData(t)
	rng := rand.New(rand.NewSource(1))
	tr, te := ds.SplitPerUser(0.7, rng)
	m := New(DefaultConfig())
	before := model.RMSE(m, te.Ratings)
	m.Train(tr.Ratings, 40_000, rng)
	after := model.RMSE(m, te.Ratings)
	if after >= before {
		t.Fatalf("training did not help: %.4f -> %.4f", before, after)
	}
	if after > 1.1 {
		t.Fatalf("converged RMSE %.4f too high", after)
	}
}

func TestTrainNoData(t *testing.T) {
	m := New(DefaultConfig())
	m.Train(nil, 100, rand.New(rand.NewSource(1))) // must not panic
	if m.ParamCount() != 0 {
		t.Fatal("training on nothing materialized parameters")
	}
}

func TestPredictFallbacks(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg)
	if got := m.Predict(5, 9); got != float32(cfg.GlobalMean) {
		t.Fatalf("cold prediction %v, want global mean", got)
	}
	m.Train([]dataset.Rating{{User: 1, Item: 2, Value: 5}}, 200, rand.New(rand.NewSource(2)))
	// Known user, unknown item: bias-only path must not panic and should
	// stay in a sane range.
	if p := m.Predict(1, 999); p < 0 || p > 6 {
		t.Fatalf("bias-only prediction %v out of range", p)
	}
}

func TestDeterministicInit(t *testing.T) {
	cfg := DefaultConfig()
	a, b := New(cfg), New(cfg)
	// Touch the same entities in different orders; initial vectors must
	// match (pure function of seed+id), the attested-equal-state property.
	av := a.users.materialize(3)
	a.users.materialize(7)
	b.users.materialize(7)
	bv := b.users.materialize(3)
	for d := range av {
		if av[d] != bv[d] {
			t.Fatalf("dim %d: %v != %v", d, av[d], bv[d])
		}
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	ds := trainingData(t)
	m := New(DefaultConfig())
	m.Train(ds.Ratings, 10_000, rand.New(rand.NewSource(3)))
	buf, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) > m.WireSize() {
		t.Fatalf("marshaled %d bytes, past WireSize %d", len(buf), m.WireSize())
	}
	m2 := New(DefaultConfig())
	if err := m2.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	for _, r := range ds.Ratings[:200] {
		if m.Predict(r.User, r.Item) != m2.Predict(r.User, r.Item) {
			t.Fatalf("prediction differs after roundtrip for %+v", r)
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

// TestMarshalV2Layout pins the encoding's exact length — the header, then
// 4(k+1) bytes per row, then one minimal uvarint per id gap — and that it
// never exceeds WireSize, which charges four bytes per id, on an empty
// model, dense ids, sparse ids and the widest gaps the id bound allows. A
// model holding an id past the bound has no encoding, and a buffer of the
// retired v1 encoding is refused by name.
func TestMarshalV2Layout(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(12))
	seq := func(n, stride int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i * stride
		}
		return out
	}
	sparse := func(n int) []int {
		seen := map[int]bool{}
		var out []int
		for len(out) < n {
			if id := rng.Intn(maxEntityID + 1); !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
		return out
	}
	for _, tc := range []struct {
		name         string
		users, items []int
	}{
		{"empty", nil, nil},
		{"dense", seq(200, 1), seq(500, 1)},
		{"strided", seq(50, 3), seq(40, 128)},
		{"sparse", sparse(300), sparse(700)},
		{"widest gaps", []int{0, maxEntityID}, []int{maxEntityID}},
	} {
		m := New(cfg)
		for _, id := range tc.users {
			m.users.materialize(id)
		}
		for _, id := range tc.items {
			m.items.materialize(id)
		}
		buf, err := m.Marshal()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := 16 + 4*(cfg.K+1)*(len(tc.users)+len(tc.items))
		for _, ids := range [][]int{tc.users, tc.items} {
			ids = slices.Clone(ids)
			slices.Sort(ids)
			prev := -1
			for _, id := range ids {
				want += len(binary.AppendUvarint(nil, uint64(id-prev-1)))
				prev = id
			}
		}
		if len(buf) != want || len(buf) > m.WireSize() {
			t.Fatalf("%s: marshaled %d bytes, want %d and at most WireSize %d", tc.name, len(buf), want, m.WireSize())
		}
		if err := New(cfg).Unmarshal(buf); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
	}

	past := New(cfg)
	past.items.materialize(maxEntityID + 1)
	if _, err := past.Marshal(); err == nil {
		t.Fatal("an id past maxEntityID marshaled")
	}

	m := New(cfg)
	m.Train([]dataset.Rating{{User: 1, Item: 2, Value: 4}, {User: 5, Item: 3, Value: 2}}, 50, rand.New(rand.NewSource(13)))
	err := New(cfg).Unmarshal(v1Rendering(t, m))
	if err == nil || !strings.Contains(err.Error(), "retired v1") {
		t.Fatalf("a v1 buffer gave %v, want the retired-encoding refusal", err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	m := New(DefaultConfig())
	if err := m.Unmarshal([]byte{1, 2, 3}); err == nil {
		t.Fatal("short buffer accepted")
	}
	other := DefaultConfig()
	other.K = 20
	m20 := New(other)
	m20.Train([]dataset.Rating{{User: 0, Item: 0, Value: 3}}, 10, rand.New(rand.NewSource(4)))
	buf, _ := m20.Marshal()
	if err := m.Unmarshal(buf); err == nil {
		t.Fatal("K mismatch accepted")
	}
	good, _ := m20.Marshal()
	if err := m20.Unmarshal(good[:len(good)-2]); err == nil {
		t.Fatal("truncated buffer accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] ^= 0xFF
	if err := m20.Unmarshal(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestUnmarshalRejectsCorruptedRecords pins what took the place of v1's
// duplicate and reordered records: an id column gap-codes strictly
// increasing ids, so a duplicate or a descent is encodable only as a gap
// that wraps around, and every such gap is refused — whichever integer
// width the wrap would happen in — leaving a populated receiver untouched.
func TestUnmarshalRejectsCorruptedRecords(t *testing.T) {
	m := New(DefaultConfig())
	data := []dataset.Rating{
		{User: 1, Item: 10, Value: 4},
		{User: 2, Item: 11, Value: 2},
		{User: 3, Item: 12, Value: 5},
	}
	m.Train(data, 200, rand.New(rand.NewSource(20)))
	good, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if err := New(DefaultConfig()).Unmarshal(good); err != nil {
		t.Fatalf("canonical buffer rejected: %v", err)
	}
	block := 16 + 4*(m.Config().K+1)*6
	if !bytes.Equal(good[block:], []byte{1, 0, 0, 10, 0, 0}) {
		t.Fatalf("test premise broken: id columns % x", good[block:])
	}
	m2 := New(DefaultConfig())
	if err := m2.Unmarshal(good); err != nil {
		t.Fatal(err)
	}
	before := m2.Predict(2, 11)
	for name, gap := range map[string]uint64{
		"duplicate by 32-bit wrap":  math.MaxUint32,
		"descent by 32-bit wrap":    math.MaxUint32 - 1,
		"duplicate by 64-bit wrap":  math.MaxUint64,
		"descent by 64-bit wrap":    math.MaxUint64 - 1,
		"just past the id bound":    maxEntityID - 1,
		"a gap past the id bound":   maxEntityID + 1,
		"int32 sign bit":            1 << 31,
		"int sign bit on 64 bits":   1 << 63,
		"past the id bound by much": 1 << 40,
	} {
		// The second user's gap (0) becomes gap: its id would be 2 + gap.
		bad := append(append(append([]byte(nil), good[:block+1]...), binary.AppendUvarint(nil, gap)...), good[block+2:]...)
		if err := New(DefaultConfig()).Unmarshal(bad); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if err := m2.Unmarshal(bad); err == nil {
			t.Fatalf("%s: accepted on a populated model", name)
		}
		if got := m2.Predict(2, 11); got != before {
			t.Fatalf("%s: failed Unmarshal mutated the model: %v vs %v", name, got, before)
		}
	}
}

func TestMarshalRoundtripProperty(t *testing.T) {
	f := func(seed int64, steps uint8) bool {
		cfg := DefaultConfig()
		m := New(cfg)
		rng := rand.New(rand.NewSource(seed))
		data := []dataset.Rating{
			{User: uint32(rng.Intn(50)), Item: uint32(rng.Intn(50)), Value: 3},
			{User: uint32(rng.Intn(50)), Item: uint32(rng.Intn(50)), Value: 4},
		}
		m.Train(data, int(steps), rng)
		buf, err := m.Marshal()
		if err != nil {
			return false
		}
		m2 := New(cfg)
		if err := m2.Unmarshal(buf); err != nil {
			return false
		}
		buf2, err := m2.Marshal()
		return err == nil && string(buf) == string(buf2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := New(DefaultConfig())
	m.Train([]dataset.Rating{{User: 1, Item: 1, Value: 5}}, 500, rand.New(rand.NewSource(5)))
	c := m.Clone().(*Model)
	before := m.Predict(1, 1)
	c.Train([]dataset.Rating{{User: 1, Item: 1, Value: 0.5}}, 2000, rand.New(rand.NewSource(6)))
	if m.Predict(1, 1) != before {
		t.Fatal("training a clone mutated the original")
	}
}

func TestMergeIdenticalIsIdempotent(t *testing.T) {
	ds := trainingData(t)
	m := New(DefaultConfig())
	m.Train(ds.Ratings, 5000, rand.New(rand.NewSource(7)))
	c := m.Clone()
	m.MergeWeighted(0.5, []model.Weighted{{M: c, W: 0.5}})
	for _, r := range ds.Ratings[:100] {
		a, b := m.Predict(r.User, r.Item), c.Predict(r.User, r.Item)
		if diff := a - b; diff > 1e-5 || diff < -1e-5 {
			t.Fatalf("averaging a model with itself changed it: %v vs %v", a, b)
		}
	}
}

func TestMergeDisjointAdoptsAlien(t *testing.T) {
	cfg := DefaultConfig()
	a := New(cfg)
	b := New(cfg)
	a.Train([]dataset.Rating{{User: 1, Item: 1, Value: 5}}, 300, rand.New(rand.NewSource(8)))
	b.Train([]dataset.Rating{{User: 2, Item: 2, Value: 1}}, 300, rand.New(rand.NewSource(9)))
	bPred := b.Predict(2, 2)
	a.MergeWeighted(0.5, []model.Weighted{{M: b, W: 0.5}})
	// Entity (2,2) existed only in b: weights renormalize to b alone, so
	// a adopts b's values exactly (§III-C2).
	if got := a.Predict(2, 2); got != bPred {
		t.Fatalf("adopted prediction %v, want %v", got, bPred)
	}
	if a.items.count() != 2 || a.users.count() != 2 {
		t.Fatalf("union sizes wrong: %d users %d items", a.users.count(), a.items.count())
	}
}

func TestMergeWeightedAverage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitStd = 0 // zero init so values are exactly the trained biases
	a := New(cfg)
	b := New(cfg)
	// Handcraft: set biases via direct table access.
	a.users.materialize(0)
	a.users.record(0)[0] = 1.0
	b.users.materialize(0)
	b.users.record(0)[0] = 3.0
	a.MergeWeighted(0.25, []model.Weighted{{M: b, W: 0.75}})
	if got := a.users.record(0)[0]; got != 0.25*1.0+0.75*3.0 {
		t.Fatalf("weighted bias %v, want 2.5", got)
	}
}

func TestMergeIncompatibleIgnored(t *testing.T) {
	a := New(DefaultConfig())
	a.users.materialize(0)
	a.users.record(0)[0] = 2
	other := DefaultConfig()
	other.K = 20
	b := New(other)
	a.MergeWeighted(0.5, []model.Weighted{{M: b, W: 0.5}})
	if a.users.record(0)[0] != 2 {
		t.Fatal("incompatible merge modified the model")
	}
}

func TestParamCountAndWireSize(t *testing.T) {
	cfg := DefaultConfig()
	m := New(cfg)
	m.users.materialize(0)
	m.items.materialize(3)
	m.items.materialize(9)
	wantParams := (cfg.K + 1) * 3
	if m.ParamCount() != wantParams {
		t.Fatalf("params %d want %d", m.ParamCount(), wantParams)
	}
	if want := 16 + (8+4*cfg.K)*3; m.WireSize() != want {
		t.Fatalf("wire %d want %d", m.WireSize(), want)
	}
}

// TestMergeCapacityStable guards against the capacity ping-pong regression:
// repeated merging between two models must not balloon allocations.
func TestMergeCapacityStable(t *testing.T) {
	cfg := DefaultConfig()
	a, b := New(cfg), New(cfg)
	rng := rand.New(rand.NewSource(10))
	data := []dataset.Rating{{User: 40, Item: 900, Value: 3}}
	a.Train(data, 10, rng)
	b.Train(data, 10, rng)
	for i := 0; i < 40; i++ {
		a.MergeWeighted(0.5, []model.Weighted{{M: b, W: 0.5}})
		b.MergeWeighted(0.5, []model.Weighted{{M: a, W: 0.5}})
	}
	// The packed layout stores one record per distinct id — a single hot
	// item id (900) must cost one slot, not a 901-entry dense prefix, and
	// repeated merging must not grow the backing arrays at all.
	if c := cap(a.items.rec) / (cfg.K + 1); c > 16 {
		t.Fatalf("packed capacity ballooned to %d records for 1 item", c)
	}
}

// denseRefMarshal is a test-local reference serializer: the wire bytes
// computed straight from the model's definition and the encoding's —
// records ascending by id, each row re-derived from the (seed, id) init
// function, biases zero (the untrained state), then the gap-coded id
// columns. The sparse implementation under test shares none of this walk:
// it serializes via its slot permutation over packed rows.
func denseRefMarshal(cfg Config, userIDs, itemIDs []int) []byte {
	refRow := func(seed uint64, id int) []float32 {
		row := make([]float32, cfg.K)
		h := seed ^ uint64(id)*0x9E3779B97F4A7C15
		for d := range row {
			h ^= h << 13
			h ^= h >> 7
			h ^= h << 17
			u := float32(h>>11)/float32(1<<52) - 1
			row[d] = u * 1.7320508 * float32(cfg.InitStd)
		}
		return row
	}
	buf := binary.LittleEndian.AppendUint32(nil, magic)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(cfg.K))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(userIDs)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(itemIDs)))
	users, items := slices.Clone(userIDs), slices.Clone(itemIDs)
	slices.Sort(users)
	slices.Sort(items)
	records := func(seed uint64, ids []int) {
		for _, id := range ids {
			buf = binary.LittleEndian.AppendUint32(buf, 0) // zero bias
			for _, x := range refRow(seed, id) {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
			}
		}
	}
	records(uint64(cfg.Seed)*2654435761+1, users)
	records(uint64(cfg.Seed)*2654435761+2, items)
	for _, ids := range [][]int{users, items} {
		prev := -1
		for _, id := range ids {
			buf = binary.AppendUvarint(buf, uint64(id-prev-1))
			prev = id
		}
	}
	return buf
}

// TestSparseDenseMarshalParity is the layout-parity property test: for
// random id sets materialized in random orders, the sparse model's wire
// bytes must equal the reference serializer's bytes exactly, so storage
// layout never reaches the wire.
func TestSparseDenseMarshalParity(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(42))
	randIDs := func(n, space int) []int {
		seen := make(map[int]bool, n)
		out := make([]int, 0, n)
		for len(out) < n {
			id := rng.Intn(space)
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
		return out
	}
	for trial := 0; trial < 25; trial++ {
		userIDs := randIDs(rng.Intn(40)+1, 500)
		itemIDs := randIDs(rng.Intn(40)+1, 2000)
		m := New(cfg)
		// Touch users and items interleaved, in a random order unrelated
		// to id order, so the packed slot layout is thoroughly shuffled.
		type touch struct {
			tab *table
			id  int
		}
		var touches []touch
		for _, id := range userIDs {
			touches = append(touches, touch{m.users, id})
		}
		for _, id := range itemIDs {
			touches = append(touches, touch{m.items, id})
		}
		rng.Shuffle(len(touches), func(i, j int) { touches[i], touches[j] = touches[j], touches[i] })
		for _, tc := range touches {
			tc.tab.materialize(tc.id)
		}
		got, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if want := denseRefMarshal(cfg, userIDs, itemIDs); !bytes.Equal(got, want) {
			t.Fatalf("trial %d: sparse marshal differs from dense reference (%d users, %d items)",
				trial, len(userIDs), len(itemIDs))
		}
	}
}

// TestMarshalTouchOrderInvariance checks the trained case: a model whose
// rows were pre-materialized in a random order before training serializes
// byte-identically to one that materialized them lazily during training.
// Initial embeddings are a pure function of (seed, id) and training never
// consults layout, so only the slot permutation differs — and it must not
// reach the wire.
func TestMarshalTouchOrderInvariance(t *testing.T) {
	ds := trainingData(t)
	data := ds.Ratings[:2000]
	direct := New(DefaultConfig())
	direct.Train(data, 3000, rand.New(rand.NewSource(5)))
	want, err := direct.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 5; trial++ {
		m := New(DefaultConfig())
		// Pre-touch exactly the ids the direct run materialized (training
		// samples steps, so it touches a subset of the data's ids), in a
		// fresh random order each trial.
		for _, s := range rng.Perm(direct.users.count()) {
			m.users.materialize(int(direct.users.ids[s]))
		}
		for _, s := range rng.Perm(direct.items.count()) {
			m.items.materialize(int(direct.items.ids[s]))
		}
		m.Train(data, 3000, rand.New(rand.NewSource(5)))
		got, err := m.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("trial %d: pre-touched model serializes differently", trial)
		}
	}
}

// TestConcurrentMergeFromSharedSource models the D-PSGD broadcast: one
// payload model is merged as a source by many receivers at once. After
// Canonicalize (which core.Node.Share performs before publication) the
// source must be purely read-only — without it, the lazy ordered()
// rebuild inside mergeTables is a data race the race detector catches
// here — and every receiver must compute byte-identical results.
func TestConcurrentMergeFromSharedSource(t *testing.T) {
	ds := trainingData(t)
	src := New(DefaultConfig())
	src.Train(ds.Ratings, 4000, rand.New(rand.NewSource(3)))
	src.Canonicalize()

	build := func() *Model {
		m := New(DefaultConfig())
		m.Train(ds.Ratings[:500], 2000, rand.New(rand.NewSource(4)))
		return m
	}
	ref := build()
	ref.MergeWeighted(0.5, []model.Weighted{{M: src, W: 0.5}})
	want, err := ref.Marshal()
	if err != nil {
		t.Fatal(err)
	}

	const readers = 8
	got := make([][]byte, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m := build()
			m.MergeWeighted(0.5, []model.Weighted{{M: src, W: 0.5}})
			got[r], _ = m.Marshal()
		}(r)
	}
	wg.Wait()
	for r := range got {
		if !bytes.Equal(got[r], want) {
			t.Fatalf("reader %d diverged from the sequential merge", r)
		}
	}
}
