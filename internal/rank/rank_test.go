package rank

import (
	"math"
	"math/rand"
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

// scoringTable is scoreTable behind the model.ItemScorer fast path.
type scoringTable struct{ scoreTable }

func (s scoringTable) ScoreItems(_ uint32, out []float32) { copy(out, s.scoreTable) }

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
// through Index.TopN, with and without an ItemScorer — to the full-sort
// reference over random catalogs with heavy ties, NaN and infinite scores,
// random seen sets, unknown users and every interesting n.
func TestTopNMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	palette := []float32{0, 1, 1, 2, 2, 2, 3.5, -1, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())}
	for trial := 0; trial < 300; trial++ {
		numItems := rng.Intn(60)
		if trial%10 == 0 {
			numItems = 0 // an empty catalog
		}
		scores := make(scoreTable, numItems)
		for i := range scores {
			scores[i] = palette[rng.Intn(len(palette))]
			if trial%3 == 0 { // a catalog with few ties
				scores[i] += rng.Float32()
			}
		}
		// Users 0..3 have random seen sets; user 9 is unknown to the index.
		var ratings []dataset.Rating
		for k := rng.Intn(2*numItems + 1); k > 0; k-- {
			ratings = append(ratings, dataset.Rating{User: uint32(rng.Intn(4)), Item: uint32(rng.Intn(numItems))})
		}
		ix := NewIndex(ratings, numItems)
		for _, user := range []uint32{0, 1, 2, 3, 9} {
			seen := SeenSet(ratings, user)
			candidates := numItems - len(seen)
			for _, n := range []int{-1, 0, 1, 10, candidates, numItems + 5} {
				want := fullSortTopN(scores, n, seen)
				for name, got := range map[string][]Item{
					"TopN":              TopN(scores, user, numItems, n, seen),
					"TopN/scorer":       TopN(scoringTable{scores}, user, numItems, n, seen),
					"Index.TopN":        ix.TopN(scores, user, n),
					"Index.TopN/scorer": ix.TopN(scoringTable{scores}, user, n),
				} {
					if !sameItems(got, want) {
						t.Fatalf("trial %d %s user %d n %d over %d items (seen %v):\n got %v\nwant %v",
							trial, name, user, n, numItems, seen, got, want)
					}
				}
			}
		}
	}
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
