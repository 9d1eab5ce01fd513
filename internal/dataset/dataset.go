// Package dataset provides the rating-triplet data model used throughout
// REX: datasets, train/test splitting, node partitioning (one user per node
// or multiple users per node), and the deduplicating raw-data store that
// each enclave keeps in protected memory (paper §III-B, Algorithm 2 line 16).
package dataset

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"slices"
)

// Rating is one user-item interaction: the triplet <user, item, value>
// described in paper §II-A. Values are star ratings in [0.5, 5.0] in steps
// of 0.5 for MovieLens-shaped data, but the type imposes no range.
type Rating struct {
	User  uint32
	Item  uint32
	Value float32
}

// Key returns a unique 64-bit identity for the (user, item) pair. Two
// ratings with equal keys describe the same interaction; later values
// supersede earlier ones on append.
func (r Rating) Key() uint64 { return uint64(r.User)<<32 | uint64(r.Item) }

// EncodedSize is the wire size of one rating triplet: two uint32 ids plus a
// float32 value. This is the unit the paper contrasts against model
// parameters when arguing raw data is small (§IV-B).
const EncodedSize = 12

// Dataset is an immutable collection of ratings together with the id-space
// bounds, mirroring the user-item matrix A in paper §II-A.
type Dataset struct {
	Ratings  []Rating
	NumUsers int // user ids are < NumUsers
	NumItems int // item ids are < NumItems
}

// New builds a Dataset from ratings, deriving NumUsers/NumItems from the
// maximum ids present. The ratings slice is retained, not copied.
func New(ratings []Rating) *Dataset {
	var maxU, maxI uint32
	for _, r := range ratings {
		if r.User > maxU {
			maxU = r.User
		}
		if r.Item > maxI {
			maxI = r.Item
		}
	}
	n := 0
	if len(ratings) > 0 {
		n = int(maxU) + 1
	}
	m := 0
	if len(ratings) > 0 {
		m = int(maxI) + 1
	}
	return &Dataset{Ratings: ratings, NumUsers: n, NumItems: m}
}

// SplitPerUser splits each user's ratings individually with the given train
// fraction, guaranteeing every user with >=2 ratings appears in both halves.
// This matches the decentralized setting where each node must hold local
// test data (Algorithm 2 line 21). Users are taken in ascending id order,
// each user's ratings shuffled from their input order.
func (d *Dataset) SplitPerUser(trainFrac float64, rng *rand.Rand) (train, test *Dataset) {
	grouped, offs := groupByUser(d.Ratings)
	cut := func(n int) int {
		c := int(float64(n) * trainFrac)
		if c == n && n > 1 {
			c = n - 1 // keep at least one test rating
		}
		if c == 0 && n > 1 {
			c = 1 // keep at least one train rating
		}
		return c
	}
	ntr := 0
	for g := range len(offs) - 1 {
		ntr += cut(offs[g+1] - offs[g])
	}
	var tr, te []Rating
	if ntr > 0 {
		tr = make([]Rating, 0, ntr)
	}
	if len(grouped) > ntr {
		te = make([]Rating, 0, len(grouped)-ntr)
	}
	var rs []Rating // one user's ratings, shuffled in place
	for g := range len(offs) - 1 {
		rs = append(rs[:0], grouped[offs[g]:offs[g+1]]...)
		rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		c := cut(len(rs))
		tr = append(tr, rs[:c]...)
		te = append(te, rs[c:]...)
	}
	train = &Dataset{Ratings: tr, NumUsers: d.NumUsers, NumItems: d.NumItems}
	test = &Dataset{Ratings: te, NumUsers: d.NumUsers, NumItems: d.NumItems}
	return train, test
}

// groupByUser returns rs stably sorted by User — each user's ratings in
// their input order, users ascending — and the user runs' bounds: user g
// of the result is grouped[offs[g]:offs[g+1]]. It sorts a copy only when
// rs is not already grouped (Generate's output and SplitPerUser's halves
// are), so grouped may alias rs and callers must not write to it.
func groupByUser(rs []Rating) (grouped []Rating, offs []int) {
	byUser := func(a, b Rating) int { return cmp.Compare(a.User, b.User) }
	grouped = rs
	if !slices.IsSortedFunc(rs, byUser) {
		grouped = slices.Clone(rs)
		slices.SortStableFunc(grouped, byUser)
	}
	for i := range grouped {
		if i == 0 || grouped[i].User != grouped[i-1].User {
			offs = append(offs, i)
		}
	}
	return grouped, append(offs, len(grouped))
}

// ErrNoRatings is returned by partitioners handed an empty dataset.
var ErrNoRatings = errors.New("dataset: no ratings to partition")

// PartitionPerUser assigns every user to its own node: node i receives
// exactly the ratings of user i (paper §IV-A5, "one node, one user"). The
// returned slice has NumUsers entries; users with no ratings get an empty
// slice.
func (d *Dataset) PartitionPerUser() ([][]Rating, error) {
	if len(d.Ratings) == 0 {
		return nil, ErrNoRatings
	}
	parts := make([][]Rating, d.NumUsers)
	for _, r := range d.Ratings {
		parts[r.User] = append(parts[r.User], r)
	}
	return parts, nil
}

// PartitionUsersAcross distributes whole users round-robin across n nodes
// (paper §IV-B-b: 610 users over 50 nodes, each node holding 12 or 13
// users). Users are dealt in shuffled order so node loads are balanced in
// expectation; a user's ratings are never split across nodes.
func (d *Dataset) PartitionUsersAcross(n int, rng *rand.Rand) ([][]Rating, error) {
	if len(d.Ratings) == 0 {
		return nil, ErrNoRatings
	}
	if n <= 0 {
		return nil, fmt.Errorf("dataset: invalid node count %d", n)
	}
	grouped, offs := groupByUser(d.Ratings)
	users := make([]int, len(offs)-1) // run indices, ascending user id
	for g := range users {
		users[g] = g
	}
	rng.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	sizes := make([]int, n)
	for i, g := range users {
		sizes[i%n] += offs[g+1] - offs[g]
	}
	parts := make([][]Rating, n)
	for node, size := range sizes {
		if size > 0 {
			parts[node] = make([]Rating, 0, size)
		}
	}
	for i, g := range users {
		node := i % n
		parts[node] = append(parts[node], grouped[offs[g]:offs[g+1]]...)
	}
	return parts, nil
}
