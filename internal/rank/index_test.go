package rank

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"rex/internal/dataset"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
)

// tiedScores gives every item the same score except a few, forcing the
// tie-break rule (lower id first) to decide most of the ranking.
type tiedScores struct{}

func (tiedScores) Train([]dataset.Rating, int, *rand.Rand) {}
func (tiedScores) Predict(u, i uint32) float32 {
	switch i {
	case 4:
		return 9
	case 11:
		return 9
	default:
		return 1
	}
}
func (tiedScores) Marshal() ([]byte, error)                { return nil, nil }
func (tiedScores) Unmarshal([]byte) error                  { return nil }
func (tiedScores) MergeWeighted(float64, []model.Weighted) {}
func (tiedScores) ParamCount() int                         { return 0 }
func (tiedScores) WireSize() int                           { return 0 }
func (tiedScores) Clone() model.Model                      { return tiedScores{} }

// TestIndexTieBreaking pins the tie rule through the cached index: equal
// scores order by ascending item id, and the rule keeps holding when the
// seen set removes the natural winners.
func TestIndexTieBreaking(t *testing.T) {
	ratings := []dataset.Rating{
		{User: 1, Item: 4, Value: 5}, // user 1 has seen the first top item
		{User: 2, Item: 0, Value: 3},
	}
	ix := NewIndex(ratings, 16)

	// User 2: both 9-scored items beat the 1-scored sea; among the tied
	// sea, ascending id order.
	got := ix.TopN(tiedScores{}, 2, 5)
	wantIDs := []uint32{4, 11, 0, 1, 2}
	// Item 0 is seen by user 2 — excluded, shifting the tail.
	wantIDs = []uint32{4, 11, 1, 2, 3}
	for i, w := range wantIDs {
		if got[i].ID != w {
			t.Fatalf("user 2 rank %d: item %d, want %d (full: %v)", i, got[i].ID, w, got)
		}
	}

	// User 1: item 4 is seen → excluded; 11 tops; then tied tail by id.
	got = ix.TopN(tiedScores{}, 1, 4)
	wantIDs = []uint32{11, 0, 1, 2}
	for i, w := range wantIDs {
		if got[i].ID != w {
			t.Fatalf("user 1 rank %d: item %d, want %d (full: %v)", i, got[i].ID, w, got)
		}
	}

	// Unknown user: nothing seen, item 4 leads (tie with 11, lower id).
	got = ix.TopN(tiedScores{}, 99, 2)
	if got[0].ID != 4 || got[1].ID != 11 {
		t.Fatalf("unknown user got %v, want [4 11]", got)
	}
}

// TestIndexMatchesUncachedTopN is the bit-identity contract: for a real
// trained MF model over a generated workload, the cached index must return
// exactly what the uncached TopN + SeenSet path returns — same ids, same
// float32 scores — for every user.
func TestIndexMatchesUncachedTopN(t *testing.T) {
	spec := movielens.Latest().Scaled(0.05)
	spec.Seed = 11
	ds := movielens.Generate(spec)
	rng := rand.New(rand.NewSource(12))
	m := mf.New(mf.DefaultConfig())
	m.Train(ds.Ratings, 40_000, rng)

	ix := NewIndex(ds.Ratings, ds.NumItems)
	const n = 10
	users := map[uint32]bool{}
	for _, r := range ds.Ratings {
		users[r.User] = true
	}
	users[1<<30] = true // a user the index has never seen
	checked := 0
	for u := range users {
		want := TopN(m, u, ds.NumItems, n, SeenSet(ds.Ratings, u))
		got := ix.TopN(m, u, n)
		if len(got) != len(want) {
			t.Fatalf("user %d: %d items cached vs %d uncached", u, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("user %d rank %d: cached %+v != uncached %+v", u, i, got[i], want[i])
			}
		}
		checked++
	}
	if checked < 10 {
		t.Fatalf("only %d users checked", checked)
	}
}

// TestIndexSeenExclusion verifies the index excludes exactly SeenSet's
// items — duplicates, other users' interactions and interactions outside
// the catalog change nothing — by asking for the whole catalog.
func TestIndexSeenExclusion(t *testing.T) {
	ratings := []dataset.Rating{
		{User: 7, Item: 3}, {User: 7, Item: 1}, {User: 8, Item: 2},
		{User: 7, Item: 1},  // duplicate interaction
		{User: 8, Item: 60}, // not in the 6-item catalog
	}
	ix := NewIndex(ratings, 6)
	for user, candidates := range map[uint32]int{7: 4, 8: 5, 9: 6} {
		want := SeenSet(ratings, user)
		rec := ix.TopN(scoreByID{}, user, 6)
		if len(rec) != candidates {
			t.Fatalf("user %d: %d candidates after exclusion, want %d", user, len(rec), candidates)
		}
		for _, it := range rec {
			if want[it.ID] {
				t.Fatalf("user %d: seen item %d recommended", user, it.ID)
			}
		}
	}
}

// indexWorkload trains a small MF model and indexes its ratings.
func indexWorkload(t *testing.T) (*mf.Model, *Index, []uint32) {
	t.Helper()
	spec := movielens.Latest().Scaled(0.05)
	spec.Seed = 21
	ds := movielens.Generate(spec)
	m := mf.New(mf.DefaultConfig())
	m.Train(ds.Ratings, 20_000, rand.New(rand.NewSource(22)))
	var users []uint32
	for _, r := range ds.Ratings {
		if len(users) == 0 || users[len(users)-1] != r.User {
			users = append(users, r.User)
		}
	}
	return m, NewIndex(ds.Ratings, ds.NumItems), users
}

// TestIndexTopNSteadyStateAllocs pins the serving path's garbage: once the
// score buffer is pooled, a query allocates its result list and nothing
// catalog-sized. (The race detector makes sync.Pool drop a quarter of its
// puts; the bound leaves room for that.)
func TestIndexTopNSteadyStateAllocs(t *testing.T) {
	m, ix, users := indexWorkload(t)
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		ix.TopN(m, users[i%len(users)], 10)
		i++
	})
	if avg > 2 {
		t.Fatalf("Index.TopN allocates %.1f times per query, want <= 2", avg)
	}
}

// TestIndexTopNConcurrent queries one immutable index and one model from
// eight goroutines; every answer must equal the serial one, which it would
// not if two queries ever shared pooled scratch. The model is a published
// snapshot (cloned and canonicalized, as the engine publishes), and then
// the trained model itself, whose lazy ascending-id order is stale: the
// serial answers come from a clone, so under -race a scorer that rebuilt
// that order would be caught writing shared state.
func TestIndexTopNConcurrent(t *testing.T) {
	m, ix, users := indexWorkload(t)
	users = append(users, 1<<30)
	published := m.Clone()
	published.(model.Canonicalizer).Canonicalize()
	for name, m := range map[string]model.Model{"published": published, "trained": m} {
		want := make([][]Item, len(users))
		for i, u := range users {
			want[i] = ix.TopN(m.Clone(), u, 10)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for round := 0; round < 3; round++ {
					for j := range users {
						i := (j + g*7) % len(users)
						if got := ix.TopN(m, users[i], 10); !slices.Equal(got, want[i]) {
							t.Errorf("%s model, goroutine %d user %d: %v, serial %v", name, g, users[i], got, want[i])
							return
						}
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
