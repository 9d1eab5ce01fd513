package rank

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rex/internal/dataset"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
)

// scoreByID is a deterministic model: item id is the score.
type scoreByID struct{}

func (scoreByID) Train([]dataset.Rating, int, *rand.Rand) {}
func (scoreByID) Predict(u, i uint32) float32             { return float32(i) }
func (scoreByID) Marshal() ([]byte, error)                { return nil, nil }
func (scoreByID) Unmarshal([]byte) error                  { return nil }
func (scoreByID) MergeWeighted(float64, []model.Weighted) {}
func (scoreByID) ParamCount() int                         { return 0 }
func (scoreByID) WireSize() int                           { return 0 }
func (scoreByID) Clone() model.Model                      { return scoreByID{} }

func TestTopNOrderAndExclusion(t *testing.T) {
	got := TopN(scoreByID{}, 0, 10, 3, map[uint32]bool{9: true})
	if len(got) != 3 {
		t.Fatalf("got %d items", len(got))
	}
	// Item 9 excluded; top scores are 8, 7, 6.
	want := []uint32{8, 7, 6}
	for i, w := range want {
		if got[i].ID != w {
			t.Fatalf("rank %d: got item %d want %d", i, got[i].ID, w)
		}
	}
}

func TestTopNEdgeCases(t *testing.T) {
	if got := TopN(scoreByID{}, 0, 5, 0, nil); got != nil {
		t.Fatal("n=0 returned items")
	}
	if got := TopN(scoreByID{}, 0, 3, 10, nil); len(got) != 3 {
		t.Fatalf("n>candidates returned %d", len(got))
	}
	all := map[uint32]bool{0: true, 1: true, 2: true}
	if got := TopN(scoreByID{}, 0, 3, 2, all); len(got) != 0 {
		t.Fatal("everything excluded but items returned")
	}
}

// scoreTable predicts a fixed score per item for every user, through the
// per-item Predict fallback.
type scoreTable []float32

func (s scoreTable) Predict(_, i uint32) float32 { return s[i] }

// batchTable is scoreTable behind model.BatchPredictor, the dense path's
// batched scoring.
type batchTable struct{ scoreTable }

func (s batchTable) PredictBatch(_, items []uint32, out []float32) {
	for j, i := range items {
		out[j] = s.scoreTable[i]
	}
}

// heldTable is scoreTable behind model.ItemScorer: it holds the listed ids,
// in that order, and the table gives every other id the cold score.
type heldTable struct {
	scoreTable
	held []int32
	cold float32
}

func (s heldTable) ScoreHeld(_ uint32, buf []float32) ([]int32, []float32, float32) {
	buf = buf[:0]
	for _, id := range s.held {
		buf = append(buf, s.scoreTable[id])
	}
	return s.held, buf, s.cold
}

// fullSortTopN is the reference ranking: score every unseen item, stable
// sort the whole list by score alone (NaN last) so ties keep ascending id,
// truncate.
func fullSortTopN(scores []float32, n int, seen map[uint32]bool) []Item {
	var items []Item
	for i, s := range scores {
		if !seen[uint32(i)] {
			items = append(items, Item{ID: uint32(i), Score: s})
		}
	}
	sort.SliceStable(items, func(a, b int) bool {
		sa, sb := float64(items[a].Score), float64(items[b].Score)
		if math.IsNaN(sa) || math.IsNaN(sb) {
			return !math.IsNaN(sa) && math.IsNaN(sb)
		}
		return sa > sb
	})
	if n < 0 {
		n = 0
	}
	return items[:min(n, len(items))]
}

// sameItems compares two lists bit for bit, so a NaN equals a NaN.
func sameItems(a, b []Item) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || math.Float32bits(a[i].Score) != math.Float32bits(b[i].Score) {
			return false
		}
	}
	return true
}

// TestTopNMatchesFullSort holds the selection kernel — through TopN and
// through Index.TopN, over per-item Predict, PredictBatch and held rows — to
// the full-sort reference over random catalogs with heavy ties, NaN and
// infinite scores, random seen sets, unknown users and every interesting n.
// The held rows are a random subset in random order, some past the
// catalog; every other item gets a cold score from the same palette.
func TestTopNMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	palette := []float32{0, 1, 1, 2, 2, 2, 3.5, -1, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	draw := func(fewTies bool) float32 {
		s := palette[rng.Intn(len(palette))]
		if fewTies {
			s += rng.Float32()
		}
		return s
	}
	for trial := 0; trial < 300; trial++ {
		numItems := rng.Intn(60)
		if trial%10 == 0 {
			numItems = 0 // an empty catalog
		}
		cold := draw(false)
		scores := make(scoreTable, numItems+5)
		var held []int32
		share := rng.Float64()
		for _, i := range rng.Perm(len(scores)) {
			scores[i] = cold
			if rng.Float64() < share {
				held = append(held, int32(i))
				scores[i] = draw(trial%3 == 0) // trial%3 == 0: a catalog with few ties
			}
		}
		// Users 0..3 have random seen sets; user 9 is unknown to the index.
		var ratings []dataset.Rating
		for k := rng.Intn(2*numItems + 1); k > 0; k-- {
			ratings = append(ratings, dataset.Rating{User: uint32(rng.Intn(4)), Item: uint32(rng.Intn(numItems))})
		}
		ix := NewIndex(ratings, numItems)
		scorer := heldTable{scores, held, cold}
		for _, user := range []uint32{0, 1, 2, 3, 9} {
			seen := SeenSet(ratings, user)
			candidates := numItems - len(seen)
			for _, n := range []int{-1, 0, 1, 10, candidates, numItems + 5} {
				want := fullSortTopN(scores[:numItems], n, seen)
				for name, got := range map[string][]Item{
					"TopN":             TopN(scores, user, numItems, n, seen),
					"TopN/batch":       TopN(batchTable{scores}, user, numItems, n, seen),
					"TopN/held":        TopN(scorer, user, numItems, n, seen),
					"Index.TopN":       ix.TopN(scores, user, n),
					"Index.TopN/batch": ix.TopN(batchTable{scores}, user, n),
					"Index.TopN/held":  ix.TopN(scorer, user, n),
				} {
					if !sameItems(got, want) {
						t.Fatalf("trial %d %s user %d n %d over %d items (seen %v, held %v, cold %v):\n got %v\nwant %v",
							trial, name, user, n, numItems, seen, held, cold, got, want)
					}
				}
			}
		}
	}
}

// TestTopNMatchesFullSortMF is the oracle for the held-rows path on real
// MF models: every list equals the full sort of per-item Predict. The
// served list and the benchmark's offline check both run the kernel under
// test, so only a reference like this one can catch a wrong list. The
// cases are the ones the cold tail makes delicate.
func TestTopNMatchesFullSortMF(t *testing.T) {
	const catalog = 4000
	rng := rand.New(rand.NewSource(41))
	var data []dataset.Rating
	for i := 0; i < 300; i++ { // 60 held items out of 4000: 1.5 % coverage
		data = append(data, dataset.Rating{
			User:  uint32(rng.Intn(12)),
			Item:  uint32(3*rng.Intn(60) + 7),
			Value: float32(rng.Intn(9)+1) / 2,
		})
	}
	trained := mf.New(mf.DefaultConfig())
	trained.Train(data, 3000, rand.New(rand.NewSource(42)))
	b, err := trained.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	const user = 3 // trained; 1<<20 is a user no model here holds
	// A held item with an all-zero record scores exactly the cold score.
	zeroItem := mustUnmarshal(t, patchRecord(t, b, false, data[0].Item, func(rec []byte) { clear(rec) }))
	// A NaN user bias makes the cold score, and with it every score, NaN.
	nanUser := mustUnmarshal(t, patchRecord(t, b, true, user, func(rec []byte) {
		binary.LittleEndian.PutUint32(rec, math.Float32bits(float32(math.NaN())))
	}))
	if p, cold := zeroItem.Predict(user, data[0].Item), zeroItem.Predict(user, 0); p != cold {
		t.Fatalf("zero record scores %v, cold score %v: not a tie", p, cold)
	}
	if p := nanUser.Predict(user, 0); p == p {
		t.Fatalf("NaN user bias gives a cold score of %v", p)
	}

	// Seen sets: the user's ratings; the lowest cold ids; both.
	var rated, lowCold []dataset.Rating
	for _, r := range data {
		if r.User == user {
			rated = append(rated, r)
		}
	}
	for i := uint32(0); i < 7; i++ {
		lowCold = append(lowCold, dataset.Rating{User: user, Item: i})
	}
	seenSets := map[string][]dataset.Rating{"none": nil, "rated": rated, "low-cold": lowCold, "both": slices.Concat(lowCold, rated)}

	models := map[string]*mf.Model{"trained": trained, "zero-item": zeroItem, "nan-user": nanUser}
	for name, m := range models {
		for _, numItems := range []int{catalog, 100, 11, 1} { // 100 and below stop under the highest held id
			for _, u := range []uint32{user, 1 << 20} {
				scores := make([]float32, numItems)
				for i := range scores {
					scores[i] = m.Predict(u, uint32(i))
				}
				for seenName, ratings := range seenSets {
					ix := NewIndex(ratings, numItems)
					seen := SeenSet(ratings, u)
					for _, n := range []int{1, 5, 10, 40, 200, numItems + 5} {
						want := fullSortTopN(scores, n, seen)
						if got := TopN(m, u, numItems, n, seen); !sameItems(got, want) {
							t.Fatalf("%s model, user %d, %d items, seen %s, n %d:\n got %v\nwant %v", name, u, numItems, seenName, n, got, want)
						}
						if got := ix.TopN(m, u, n); !sameItems(got, want) {
							t.Fatalf("%s model, user %d, %d items, seen %s, n %d, Index.TopN:\n got %v\nwant %v", name, u, numItems, seenName, n, got, want)
						}
					}
				}
			}
		}
	}
}

func mustUnmarshal(t *testing.T, b []byte) *mf.Model {
	t.Helper()
	m := mf.New(mf.DefaultConfig())
	if err := m.Unmarshal(b); err != nil {
		t.Fatal(err)
	}
	return m
}

// patchRecord returns a copy of an mf encoding with the record of one
// user (or item) passed through edit. It finds the record by reading the
// gap-coded id columns behind the record block (mf's Marshal documents the
// layout).
func patchRecord(t *testing.T, enc []byte, user bool, id uint32, edit func(rec []byte)) []byte {
	t.Helper()
	b := slices.Clone(enc)
	w := 4 * (int(binary.LittleEndian.Uint32(b[4:])) + 1)
	nu := int(binary.LittleEndian.Uint32(b[8:]))
	rows := nu + int(binary.LittleEndian.Uint32(b[12:]))
	off, prev := 16+rows*w, uint64(0)
	for r := 0; r < rows; r++ {
		v, n := binary.Uvarint(b[off:])
		off += n
		if r != 0 && r != nu { // each column's first id is written as is
			v += prev + 1
		}
		prev = v
		if (r < nu) == user && v == uint64(id) {
			edit(b[16+r*w : 16+(r+1)*w])
			return b
		}
	}
	t.Fatalf("id %d not in the encoding", id)
	return nil
}

// TestTopNRanksNaNLast pins the order a poisoned model gets: every number,
// -Inf included, outranks a NaN, and NaNs order among themselves by id.
func TestTopNRanksNaNLast(t *testing.T) {
	nan := float32(math.NaN())
	scores := scoreTable{nan, 2, nan, float32(math.Inf(-1)), 2, nan}
	got := TopN(scores, 0, len(scores), len(scores), nil)
	want := []uint32{1, 4, 3, 0, 2, 5}
	for i, w := range want {
		if got[i].ID != w {
			t.Fatalf("rank %d: item %d, want %d (full: %v)", i, got[i].ID, w, got)
		}
	}
	if got = TopN(scores, 0, len(scores), 2, map[uint32]bool{1: true, 4: true, 3: true}); got[0].ID != 0 || got[1].ID != 2 {
		t.Fatalf("all-NaN candidates ranked %v, want items 0 then 2", got)
	}
}

func TestSeenSet(t *testing.T) {
	rs := []dataset.Rating{{User: 1, Item: 5}, {User: 2, Item: 6}, {User: 1, Item: 7}}
	s := SeenSet(rs, 1)
	if !s[5] || !s[7] || s[6] {
		t.Fatalf("seen set %v", s)
	}
}

// perfectModel knows the relevant items.
type perfectModel struct{ rel map[uint32]bool }

func (p perfectModel) Train([]dataset.Rating, int, *rand.Rand) {}
func (p perfectModel) Predict(u, i uint32) float32 {
	if p.rel[i] {
		return 5
	}
	return 1
}
func (p perfectModel) Marshal() ([]byte, error)                { return nil, nil }
func (p perfectModel) Unmarshal([]byte) error                  { return nil }
func (p perfectModel) MergeWeighted(float64, []model.Weighted) {}
func (p perfectModel) ParamCount() int                         { return 0 }
func (p perfectModel) WireSize() int                           { return 0 }
func (p perfectModel) Clone() model.Model                      { return p }

func TestEvaluatePerfectModel(t *testing.T) {
	test := []dataset.Rating{
		{User: 0, Item: 3, Value: 5}, // relevant
		{User: 0, Item: 4, Value: 4.5},
		{User: 0, Item: 5, Value: 2}, // not relevant
	}
	m := perfectModel{rel: map[uint32]bool{3: true, 4: true}}
	got := Evaluate(m, nil, test, 10, 2)
	if got.Users != 1 {
		t.Fatalf("users %d", got.Users)
	}
	if got.PrecisionAtK != 1 || got.RecallAtK != 1 {
		t.Fatalf("perfect model scored p=%.2f r=%.2f", got.PrecisionAtK, got.RecallAtK)
	}
	if math.Abs(got.NDCGAtK-1) > 1e-12 {
		t.Fatalf("perfect NDCG %.4f", got.NDCGAtK)
	}
}

func TestEvaluateAntiModel(t *testing.T) {
	test := []dataset.Rating{{User: 0, Item: 3, Value: 5}}
	// Model ranks everything except item 3 above it.
	m := perfectModel{rel: map[uint32]bool{}}
	got := Evaluate(m, nil, test, 50, 5)
	if got.PrecisionAtK > 0.2 {
		t.Fatalf("anti-model precision %.2f", got.PrecisionAtK)
	}
}

func TestEvaluateExcludesTrainItems(t *testing.T) {
	train := []dataset.Rating{{User: 0, Item: 8, Value: 5}}
	test := []dataset.Rating{{User: 0, Item: 9, Value: 5}}
	got := Evaluate(scoreByID{}, train, test, 10, 1)
	// Item 9 tops the list only because trained item 8... actually 9 > 8
	// anyway; the point: item 8 must not occupy a slot.
	if got.PrecisionAtK != 1 {
		t.Fatalf("precision %.2f", got.PrecisionAtK)
	}
}

// randomRanker scores items by a hash — a ranking no better than chance.
type randomRanker struct{}

func (randomRanker) Train([]dataset.Rating, int, *rand.Rand) {}
func (randomRanker) Predict(u, i uint32) float32 {
	h := (uint64(i)*0x9E3779B97F4A7C15 + uint64(u)) * 0xBF58476D1CE4E5B9
	return float32(h>>40) / float32(1<<24)
}
func (randomRanker) Marshal() ([]byte, error)                { return nil, nil }
func (randomRanker) Unmarshal([]byte) error                  { return nil }
func (randomRanker) MergeWeighted(float64, []model.Weighted) {}
func (randomRanker) ParamCount() int                         { return 0 }
func (randomRanker) WireSize() int                           { return 0 }
func (randomRanker) Clone() model.Model                      { return randomRanker{} }

func TestEvaluateTrainedMFBeatsRandom(t *testing.T) {
	spec := movielens.Latest().Scaled(0.05)
	spec.Seed = 3
	ds := movielens.Generate(spec)
	rng := rand.New(rand.NewSource(4))
	tr, te := ds.SplitPerUser(0.7, rng)
	trained := mf.New(mf.DefaultConfig())
	trained.Train(tr.Ratings, 60_000, rng)

	k := 10
	gotTrained := Evaluate(trained, tr.Ratings, te.Ratings, ds.NumItems, k)
	gotRandom := Evaluate(randomRanker{}, tr.Ratings, te.Ratings, ds.NumItems, k)
	if gotTrained.Users == 0 {
		t.Fatal("no users evaluated")
	}
	if gotTrained.NDCGAtK <= gotRandom.NDCGAtK {
		t.Fatalf("training did not beat random ranking: %.4f vs %.4f",
			gotTrained.NDCGAtK, gotRandom.NDCGAtK)
	}
}

// TestEvaluateRepeatsBitForBit: the metric sums run over users in
// ascending id, so two evaluations of one model agree to the last bit.
func TestEvaluateRepeatsBitForBit(t *testing.T) {
	spec := movielens.Latest().Scaled(0.05)
	spec.Seed = 8
	ds := movielens.Generate(spec)
	rng := rand.New(rand.NewSource(9))
	tr, te := ds.SplitPerUser(0.7, rng)
	m := mf.New(mf.DefaultConfig())
	m.Train(tr.Ratings, 20_000, rng)
	first := Evaluate(m, tr.Ratings, te.Ratings, ds.NumItems, 10)
	if first.Users < 10 {
		t.Fatalf("only %d users evaluated", first.Users)
	}
	for i := 0; i < 5; i++ {
		if got := Evaluate(m, tr.Ratings, te.Ratings, ds.NumItems, 10); got != first {
			t.Fatalf("evaluation %d differs: %+v vs %+v", i+2, got, first)
		}
	}
}
