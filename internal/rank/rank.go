// Package rank turns trained rating predictors into recommenders: top-N
// recommendation lists and the ranking metrics used to evaluate them
// (precision@k, recall@k, NDCG@k). The paper evaluates RMSE (§IV-A4); a
// deployed recommender additionally serves ranked lists, which is what
// this layer provides on top of any model.Model.
//
// A list is exact: the n best unseen items under one total order (score
// descending, NaN last, ties by ascending id). Its cost follows the model,
// not the catalog, when the model is a model.ItemScorer: a node's MF model
// holds rows only for the items raw-data sharing brought it (§II-B), and
// every other item shares one cold score, so a query scores the held rows
// and then takes cold items by ascending id for as long as they still
// rank. Other predictors score the whole catalog.
package rank

import (
	"math"
	"slices"
	"sync"

	"rex/internal/dataset"
	"rex/internal/model"
)

// Item is one entry of a recommendation list.
type Item struct {
	ID    uint32
	Score float32
}

// Predictor is the minimal surface ranking needs: a rating prediction per
// (user, item) pair. model.Model satisfies it; so do adapters over
// recommenders outside the model contract (e.g. internal/knn served from
// a node's raw-data store). A predictor that is also a model.ItemScorer is
// ranked from its held rows and cold score, a model.BatchPredictor through
// PredictBatch over the catalog, any other by one Predict per catalog item.
type Predictor interface {
	Predict(user, item uint32) float32
}

// TopN returns the n highest-predicted items for a user, excluding the
// items in seen (typically the user's training interactions). Candidates
// are 0..numItems-1. Ties break toward lower item ids for determinism, and
// a NaN score ranks below every number.
func TopN(m Predictor, user uint32, numItems, n int, seen map[uint32]bool) []Item {
	return topN(m, user, numItems, n, func(id uint32) bool { return seen[id] })
}

// outranks is the ranking's total order: higher score first, NaN after
// every number, equal scores (and NaNs among themselves) by ascending id.
func outranks(a, b Item) bool {
	switch {
	case a.Score > b.Score:
		return true
	case a.Score < b.Score:
		return false
	}
	// Equal, or at least one NaN (x != x only for NaN).
	if aNaN, bNaN := a.Score != a.Score, b.Score != b.Score; aNaN != bNaN {
		return bNaN
	}
	return a.ID < b.ID
}

// scratch is one query's reusable buffers.
type scratch struct {
	scores []float32 // held rows' scores, or the catalog's on the dense path
	held   []uint64  // bit id set when the model holds item id; all clear between queries
}

// scratchPool recycles query scratch, so a warm query allocates only its
// result.
var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// batchChunk is how many catalog items the dense path pushes through one
// PredictBatch call: enough to amortize a DNN's layer dispatch, few enough
// that the id arrays stay small.
const batchChunk = 256

// topN is the one ranking kernel: an n-entry heap, its root the worst
// survivor, fed candidates in any order and heapsorted at the end. seen is
// asked only about a candidate that would otherwise enter the heap.
//
// A model.ItemScorer hands over its held rows and the cold score every
// other item gets. The held (id, score) pairs go through the heap first.
// The cold items all tie, so ascending id is their rank order: they fill
// from the lowest unheld, unseen id and stop at the first that cannot
// outrank the root, which no later one can. A query then costs the held
// rows, n and the seen probes, not the catalog. Any other predictor scores
// the whole catalog, through PredictBatch when it has it.
func topN(m Predictor, user uint32, numItems, n int, seen func(uint32) bool) []Item {
	if n <= 0 || numItems <= 0 {
		return nil
	}
	n = min(n, numItems)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	h := make([]Item, 0, n)

	s, ok := m.(model.ItemScorer)
	if !ok {
		scores := scoreCatalog(m, user, sc, numItems)
		for i, score := range scores {
			if c := (Item{ID: uint32(i), Score: score}); len(h) < n || outranks(c, h[0]) {
				h = offer(h, n, c, seen)
			}
		}
		return finish(h, n)
	}

	held, scores, cold := s.ScoreHeld(user, sc.scores)
	sc.scores = scores
	scores = scores[:len(held)] // one length for both: no bounds check below
	for j, id := range held {
		c := Item{ID: uint32(id), Score: scores[j]}
		if uint(c.ID) < uint(numItems) && (len(h) < n || outranks(c, h[0])) {
			h = offer(h, n, c, seen)
		}
	}
	// No cold item ranks above item 0 at the cold score.
	if len(h) < n || outranks(Item{ID: 0, Score: cold}, h[0]) {
		h = fillCold(h, n, numItems, held, cold, sc, seen)
	}
	return finish(h, n)
}

// fillCold offers the cold items, every catalog id the model does not
// hold, in ascending id: their rank order, as they tie. It stops at the
// first one that cannot outrank the root of the full heap, as no later
// one can. The held ids are marked in the scratch bitmap for the walk and
// cleared after it.
func fillCold(h []Item, n, numItems int, held []int32, cold float32, sc *scratch, seen func(uint32) bool) []Item {
	if words := (numItems + 63) / 64; len(sc.held) < words {
		sc.held = make([]uint64, words)
	}
	for _, id := range held {
		if uint(uint32(id)) < uint(numItems) {
			sc.held[uint32(id)/64] |= 1 << (uint32(id) % 64)
		}
	}
	for i := 0; i < numItems; i++ {
		if sc.held[i/64]&(1<<(i%64)) != 0 {
			continue
		}
		c := Item{ID: uint32(i), Score: cold}
		if len(h) == n && !outranks(c, h[0]) {
			break
		}
		h = offer(h, n, c, seen)
	}
	for _, id := range held {
		if uint(uint32(id)) < uint(numItems) {
			sc.held[uint32(id)/64] = 0
		}
	}
	return h
}

// scoreCatalog fills the scratch with Predict(user, i) for every catalog
// item i.
func scoreCatalog(m Predictor, user uint32, sc *scratch, numItems int) []float32 {
	if cap(sc.scores) < numItems {
		sc.scores = make([]float32, numItems)
	}
	scores := sc.scores[:numItems]
	bp, ok := m.(model.BatchPredictor)
	if !ok {
		for i := range scores {
			scores[i] = m.Predict(user, uint32(i))
		}
		return scores
	}
	var users, items [batchChunk]uint32
	for j := range users {
		users[j] = user
	}
	for start := 0; start < numItems; start += batchChunk {
		chunk := scores[start:min(start+batchChunk, numItems)]
		for j := range chunk {
			items[j] = uint32(start + j)
		}
		bp.PredictBatch(users[:len(chunk)], items[:len(chunk)], chunk)
	}
	return scores
}

// offer enters candidate c, which outranks the root of the full heap h,
// unless it is seen. Until h holds n items it is a list; the item that
// fills it turns it into a heap.
func offer(h []Item, n int, c Item, seen func(uint32) bool) []Item {
	if seen(c.ID) {
		return h
	}
	if len(h) < n {
		h = append(h, c)
		if len(h) == n {
			heapify(h)
		}
		return h
	}
	h[0] = c
	siftDown(h, 0)
	return h
}

// finish sorts the survivors best first: each heapsort pop moves the worst
// one behind the rest.
func finish(h []Item, n int) []Item {
	if len(h) < n {
		heapify(h)
	}
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end], 0)
	}
	return h
}

// heapify puts h in heap order.
func heapify(h []Item) {
	for r := len(h)/2 - 1; r >= 0; r-- {
		siftDown(h, r)
	}
}

// siftDown restores the heap order (every parent is outranked by its
// children, so h[0] is the worst) below position r.
func siftDown(h []Item, r int) {
	for {
		c := 2*r + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && outranks(h[c], h[c+1]) {
			c++
		}
		if !outranks(h[r], h[c]) {
			return
		}
		h[r], h[c] = h[c], h[r]
		r = c
	}
}

// SeenSet builds the exclusion set of items a user interacted with.
func SeenSet(ratings []dataset.Rating, user uint32) map[uint32]bool {
	out := make(map[uint32]bool)
	for _, r := range ratings {
		if r.User == user {
			out[r.Item] = true
		}
	}
	return out
}

// Metrics aggregates ranking quality over a user population.
type Metrics struct {
	PrecisionAtK float64
	RecallAtK    float64
	NDCGAtK      float64
	Users        int // users with at least one relevant test item
}

// RelevanceThreshold is the star value at and above which a held-out
// rating counts as "relevant" for ranking metrics (liked items).
const RelevanceThreshold = 4.0

// Evaluate computes mean precision@k, recall@k and NDCG@k over all users
// present in test. Train interactions are excluded from candidate lists.
func Evaluate(m model.Model, train, test []dataset.Rating, numItems, k int) Metrics {
	if k <= 0 {
		return Metrics{}
	}
	ix := NewIndex(train, numItems)
	relevant := make(map[uint32]map[uint32]bool)
	for _, r := range test {
		if r.Value < RelevanceThreshold {
			continue
		}
		mset, ok := relevant[r.User]
		if !ok {
			mset = make(map[uint32]bool)
			relevant[r.User] = mset
		}
		mset[r.Item] = true
	}

	// Ascending user id, not map order: the float sums must repeat bit for
	// bit from run to run.
	users := make([]uint32, 0, len(relevant))
	for user := range relevant {
		users = append(users, user)
	}
	slices.Sort(users)

	var out Metrics
	for _, user := range users {
		rel := relevant[user]
		rec := ix.TopN(m, user, k)
		hits := 0
		dcg := 0.0
		for pos, it := range rec {
			if rel[it.ID] {
				hits++
				dcg += 1 / math.Log2(float64(pos)+2)
			}
		}
		ideal := 0.0
		n := len(rel)
		if n > k {
			n = k
		}
		for pos := 0; pos < n; pos++ {
			ideal += 1 / math.Log2(float64(pos)+2)
		}
		out.PrecisionAtK += float64(hits) / float64(k)
		out.RecallAtK += float64(hits) / float64(len(rel))
		if ideal > 0 {
			out.NDCGAtK += dcg / ideal
		}
		out.Users++
	}
	if out.Users > 0 {
		f := float64(out.Users)
		out.PrecisionAtK /= f
		out.RecallAtK /= f
		out.NDCGAtK /= f
	}
	return out
}
