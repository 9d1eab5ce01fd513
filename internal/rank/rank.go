// Package rank turns trained rating predictors into recommenders: top-N
// recommendation lists and the ranking metrics used to evaluate them
// (precision@k, recall@k, NDCG@k). The paper evaluates RMSE (§IV-A4); a
// deployed recommender additionally serves ranked lists, which is what
// this layer provides on top of any model.Model.
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
// a node's raw-data store). A predictor that is also a model.ItemScorer
// scores the catalog in one call instead of one Predict per item.
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

// scorePool recycles the catalog-sized score buffers across queries.
var scorePool = sync.Pool{New: func() any { return new([]float32) }}

// topN is the one ranking kernel. It scores the whole catalog into a pooled
// buffer — through model.ItemScorer when the predictor has it, per-item
// Predict otherwise — and scans the scores in ascending id order through an
// n-entry heap whose root is the worst survivor. seen is asked only about an
// item that would otherwise enter the heap, and only the survivors are
// sorted, so a query allocates its result and nothing catalog-sized.
func topN(m Predictor, user uint32, numItems, n int, seen func(uint32) bool) []Item {
	if n <= 0 || numItems <= 0 {
		return nil
	}
	n = min(n, numItems)
	buf := scorePool.Get().(*[]float32)
	defer scorePool.Put(buf)
	if cap(*buf) < numItems {
		*buf = make([]float32, numItems)
	}
	scores := (*buf)[:numItems]
	if s, ok := m.(model.ItemScorer); ok {
		s.ScoreItems(user, scores)
	} else {
		for i := range scores {
			scores[i] = m.Predict(user, uint32(i))
		}
	}

	h := make([]Item, 0, n)
	i := 0
	for ; i < numItems && len(h) < n; i++ {
		if !seen(uint32(i)) {
			h = append(h, Item{ID: uint32(i), Score: scores[i]})
		}
	}
	for r := len(h)/2 - 1; r >= 0; r-- {
		siftDown(h, r)
	}
	for ; i < numItems; i++ {
		if c := (Item{ID: uint32(i), Score: scores[i]}); outranks(c, h[0]) && !seen(c.ID) {
			h[0] = c
			siftDown(h, 0)
		}
	}
	// Heapsort in place: each pop moves the worst survivor behind the rest,
	// leaving the list best first.
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		siftDown(h[:end], 0)
	}
	return h
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
