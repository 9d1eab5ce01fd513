package rank

import (
	"maps"
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

// indexWorkload trains a small MF model and indexes its ratings. The
// ratings sit at the front of an array with room for as many again, so a
// test can append to them in place and derive indexes over the extension.
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
	ratings := append(make([]dataset.Rating, 0, 2*len(ds.Ratings)), ds.Ratings...)
	return m, NewIndex(ratings, ds.NumItems), users
}

// checkIndex fails unless got holds what NewIndex builds over the same
// ratings: the same users, each with the same seen span, and the same
// TopN lists for every user and for one the index never saw.
func checkIndex(t *testing.T, got *Index, ratings []dataset.Rating, numItems int) {
	t.Helper()
	want := NewIndex(ratings, numItems)
	if len(got.row) != len(want.row) || len(got.spans) != len(want.spans) || got.live != want.live {
		t.Fatalf("%d users, %d spans, %d entries; NewIndex has %d, %d, %d",
			len(got.row), len(got.spans), got.live, len(want.row), len(want.spans), want.live)
	}
	for u, r := range want.row {
		g, ok := got.row[u]
		if !ok || !slices.Equal(got.spans[g], want.spans[r]) {
			t.Fatalf("user %d: span %v, NewIndex %v", u, got.spans[g], want.spans[r])
		}
	}
	for u := range want.row {
		for _, n := range []int{1, 3, numItems} {
			if g, w := got.TopN(scoreByID{}, u, n), want.TopN(scoreByID{}, u, n); !slices.Equal(g, w) {
				t.Fatalf("user %d top %d: %v, NewIndex %v", u, n, g, w)
			}
		}
	}
	if g, w := got.TopN(scoreByID{}, 1<<30, numItems), want.TopN(scoreByID{}, 1<<30, numItems); !slices.Equal(g, w) {
		t.Fatalf("unknown user: %v, NewIndex %v", g, w)
	}
}

// FuzzIndexNext derives chains of indexes over growing prefixes of one
// array, as serving does over a store's snapshots, and checks every link
// against NewIndex over the same prefix (checkIndex). The ratings bring
// new users all along and items at or above numItems; some links append
// nothing; some hand Next ratings that do not extend the last — a copy,
// or a shorter prefix — which must be built afresh. Every parent index
// must read the same after its child is derived, and no link may hold
// more stale entries than maxStaleShare allows.
func FuzzIndexNext(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		f.Add(seed, uint8(seed*41))
	}
	f.Fuzz(func(t *testing.T, seed int64, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		numItems, users := 1+int(shape%32), 1+int(shape/32)*4
		buf := make([]dataset.Rating, 600)
		for i := range buf {
			buf[i] = dataset.Rating{
				User: uint32(rng.Intn(1 + users*(i+1)/len(buf))), // ids 0..users-1, the higher ones late
				Item: uint32(rng.Intn(numItems + 3)),
			}
		}
		var ix *Index
		n := 0
		for link := 0; link < 60; link++ {
			prev := ix
			var row map[uint32]int32
			var spans [][]uint32
			if prev != nil {
				row = maps.Clone(prev.row)
				for _, sp := range prev.spans {
					spans = append(spans, slices.Clone(sp))
				}
			}
			var ratings []dataset.Rating
			fresh := prev == nil
			switch k := rng.Intn(10); {
			case k == 0:
				n = min(len(buf), n+rng.Intn(20))
				ratings, fresh = slices.Clone(buf[:n]), true
			case k == 1:
				m := rng.Intn(n + 1)
				ratings, fresh = buf[:m], fresh || m < n
				n = m
			case k == 2:
				ratings = buf[:n]
			default:
				n = min(len(buf), n+rng.Intn(40))
				ratings = buf[:n]
			}
			ix = prev.Next(ratings, numItems)
			checkIndex(t, ix, ratings, numItems)
			if fresh && (ix == prev || ix.stale != 0) {
				t.Fatalf("link %d: ratings that do not extend the last were not indexed afresh", link)
			}
			if float64(ix.stale) > maxStaleShare*float64(ix.stale+ix.live) {
				t.Fatalf("link %d: %d stale entries beside %d live", link, ix.stale, ix.live)
			}
			if prev != nil {
				if !maps.Equal(prev.row, row) || !slices.EqualFunc(prev.spans, spans, slices.Equal) {
					t.Fatalf("link %d: deriving an index changed its parent", link)
				}
			}
		}
	})
}

// TestIndexNextRebuildsStale grows one user's span by an item a link:
// every derivation supersedes the whole span, so stale entries pile up
// until they pass maxStaleShare and Next builds afresh, after which
// derivation resumes.
func TestIndexNextRebuildsStale(t *testing.T) {
	buf := make([]dataset.Rating, 64)
	for i := range buf {
		buf[i] = dataset.Rating{User: 3, Item: uint32(i)}
	}
	ix := NewIndex(buf[:1], len(buf))
	derived, rebuilt := 0, 0
	for n := 2; n <= len(buf); n++ {
		prev := ix
		ix = prev.Next(buf[:n], len(buf))
		checkIndex(t, ix, buf[:n], len(buf))
		switch {
		case ix.stale > prev.stale:
			derived++
		case ix.stale == 0 && prev.stale > 0:
			rebuilt++
		}
	}
	if derived == 0 || rebuilt == 0 {
		t.Fatalf("%d derivations and %d rebuilds over 63 links, want both", derived, rebuilt)
	}
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
// that order would be caught writing shared state. Meanwhile the test's
// own goroutine derives newer indexes from the one being read, as serving
// does once per published snapshot: a derivation that wrote into what it
// shares with its parent would change the readers' answers, and under
// -race would be reported.
func TestIndexTopNConcurrent(t *testing.T) {
	m, ix, users := indexWorkload(t)
	// What later snapshots append, in place past the indexed ratings:
	// known users' new interactions, items past the catalog and, in the
	// second half only, new users.
	grown := ix.ratings[:cap(ix.ratings)]
	rng := rand.New(rand.NewSource(23))
	for i := len(ix.ratings); i < len(grown); i++ {
		grown[i] = dataset.Rating{User: users[rng.Intn(len(users))], Item: uint32(rng.Intn(ix.numItems + 10))}
		if 2*i > len(ix.ratings)+len(grown) && rng.Intn(8) == 0 {
			grown[i].User = 1<<20 + uint32(rng.Intn(50))
		}
	}
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
		next := ix
		for n := len(ix.ratings); n < len(grown); n += len(grown) / 40 {
			next = next.Next(grown[:n], ix.numItems)
			checkIndex(t, next, grown[:n], ix.numItems)
		}
		wg.Wait()
	}
}
