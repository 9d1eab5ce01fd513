// Package knn implements user-based K-nearest-neighbour collaborative
// filtering — the other decentralized recommender family the paper
// surveys (§II-B, citing WHATSUP): predictions from the opinions of the k
// most similar users. KNN fundamentally requires access to *other users'
// raw profiles*, which classical parameter-sharing DLS cannot provide; a
// REX node's deduplicated raw-data store is exactly the profile database
// KNN needs, so raw data sharing enables this model family for free. The
// ext-knn experiment quantifies that.
package knn

import (
	"math"
	"sort"

	"rex/internal/dataset"
)

// Config holds KNN hyperparameters.
type Config struct {
	// K is the neighbourhood size.
	K int
	// MinOverlap is the minimum number of co-rated items for a similarity
	// to count (guards against spurious 1-item matches).
	MinOverlap int
	// GlobalMean is the cold-start prediction.
	GlobalMean float64
}

// DefaultConfig returns commonly used KNN settings.
func DefaultConfig() Config { return Config{K: 20, MinOverlap: 2, GlobalMean: 3.5} }

// Recommender predicts ratings from a set of raw profiles using cosine
// similarity over mean-centered co-rated items (adjusted cosine).
//
// Profiles are stored in CSR form: one packed row of ascending (item,
// value) pairs per user, plus the per-user mean. Compared to the earlier
// map-of-maps layout this costs ~12 bytes per rating instead of ~100, and
// similarity walks two sorted rows in item order — a fixed summation
// order, so similarities are deterministic run to run (map iteration made
// them dependent on hash seeding before).
type Recommender struct {
	cfg   Config
	users []uint32 // sorted distinct user ids; row r belongs to users[r]
	start []int32  // len(users)+1 row offsets into items/vals
	items []uint32 // ascending item ids within each row
	vals  []float64
	mean  []float64 // per-row mean rating
}

// New builds a recommender from raw ratings (e.g. a REX node's store).
// Duplicate (user,item) pairs keep the last value for the profile; every
// occurrence still contributes to the user's mean, matching the previous
// implementation's accounting.
func New(cfg Config, ratings []dataset.Rating) *Recommender {
	if cfg.K <= 0 {
		cfg.K = 20
	}
	r := &Recommender{cfg: cfg}
	if len(ratings) == 0 {
		r.start = []int32{0}
		return r
	}
	// Sort a copy by (user, item), keeping input order within equal pairs
	// so "last occurrence wins" survives the stable sort.
	rs := make([]dataset.Rating, len(ratings))
	copy(rs, ratings)
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].User != rs[j].User {
			return rs[i].User < rs[j].User
		}
		return rs[i].Item < rs[j].Item
	})
	r.start = append(r.start, 0)
	var sum float64
	var n int
	flush := func(user uint32) {
		r.users = append(r.users, user)
		r.start = append(r.start, int32(len(r.items)))
		r.mean = append(r.mean, sum/float64(n))
		sum, n = 0, 0
	}
	for i, rt := range rs {
		if i > 0 && rt.User != rs[i-1].User {
			flush(rs[i-1].User)
		}
		v := float64(rt.Value)
		sum += v
		n++
		if last := len(r.items) - 1; last >= int(r.start[len(r.start)-1]) && r.items[last] == rt.Item {
			r.vals[last] = v // duplicate pair: newest opinion wins
			continue
		}
		r.items = append(r.items, rt.Item)
		r.vals = append(r.vals, v)
	}
	flush(rs[len(rs)-1].User)
	return r
}

// NumProfiles returns how many distinct users the recommender knows.
func (r *Recommender) NumProfiles() int { return len(r.users) }

// rowOf returns the CSR row for user, or -1.
func (r *Recommender) rowOf(user uint32) int {
	i := sort.Search(len(r.users), func(i int) bool { return r.users[i] >= user })
	if i < len(r.users) && r.users[i] == user {
		return i
	}
	return -1
}

// row returns the items and values of row i.
func (r *Recommender) row(i int) ([]uint32, []float64) {
	lo, hi := r.start[i], r.start[i+1]
	return r.items[lo:hi], r.vals[lo:hi]
}

// rated returns the value of item in row i, if present.
func (r *Recommender) rated(i int, item uint32) (float64, bool) {
	its, vls := r.row(i)
	j := sort.Search(len(its), func(j int) bool { return its[j] >= item })
	if j < len(its) && its[j] == item {
		return vls[j], true
	}
	return 0, false
}

// rowSimilarity computes the adjusted-cosine similarity between the users
// of CSR rows ra and rb over their co-rated items; ok is false below the
// overlap threshold. Both rows are walked in ascending item order, so the
// summation order — and hence the float64 result — is a pure function of
// the profiles.
func (r *Recommender) rowSimilarity(ra, rb int) (float64, bool) {
	ia, va := r.row(ra)
	ib, vb := r.row(rb)
	ma, mb := r.mean[ra], r.mean[rb]
	var dot, na, nb float64
	overlap := 0
	for x, y := 0, 0; x < len(ia) && y < len(ib); {
		switch {
		case ia[x] < ib[y]:
			x++
		case ia[x] > ib[y]:
			y++
		default:
			da, db := va[x]-ma, vb[y]-mb
			dot += da * db
			na += da * da
			nb += db * db
			overlap++
			x++
			y++
		}
	}
	if overlap < r.cfg.MinOverlap || na == 0 || nb == 0 {
		return 0, false
	}
	return dot / math.Sqrt(na*nb), true
}

type neighbor struct {
	row int
	sim float64
}

// neighbors returns the k most similar users to `user` that have rated
// `item`.
func (r *Recommender) neighbors(userRow int, user, item uint32) []neighbor {
	var cands []neighbor
	for other := range r.users {
		if other == userRow {
			continue
		}
		if _, ok := r.rated(other, item); !ok {
			continue
		}
		if s, ok := r.rowSimilarity(userRow, other); ok && s > 0 {
			cands = append(cands, neighbor{row: other, sim: s})
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].sim != cands[j].sim {
			return cands[i].sim > cands[j].sim
		}
		return r.users[cands[i].row] < r.users[cands[j].row]
	})
	if len(cands) > r.cfg.K {
		cands = cands[:r.cfg.K]
	}
	return cands
}

// Predict estimates user's rating of item: the user's mean plus the
// similarity-weighted mean-centered opinions of the neighbourhood.
func (r *Recommender) Predict(user, item uint32) float64 {
	base := r.cfg.GlobalMean
	userRow := r.rowOf(user)
	if userRow < 0 {
		return base
	}
	base = r.mean[userRow]
	nb := r.neighbors(userRow, user, item)
	if len(nb) == 0 {
		return base
	}
	var num, den float64
	for _, n := range nb {
		v, _ := r.rated(n.row, item)
		num += n.sim * (v - r.mean[n.row])
		den += math.Abs(n.sim)
	}
	if den == 0 {
		return base
	}
	return base + num/den
}

// RMSE evaluates the recommender over held-out ratings, clamping into the
// star range like model.RMSE.
func (r *Recommender) RMSE(test []dataset.Rating) float64 {
	if len(test) == 0 {
		return 0
	}
	var se float64
	for _, t := range test {
		p := r.Predict(t.User, t.Item)
		if p < 0.5 {
			p = 0.5
		}
		if p > 5 {
			p = 5
		}
		d := p - float64(t.Value)
		se += d * d
	}
	return math.Sqrt(se / float64(len(test)))
}
