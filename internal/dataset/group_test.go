package dataset

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// mapSplitPerUser is SplitPerUser as it was built on a map from user to
// ratings: the oracle for the grouped version.
func mapSplitPerUser(d *Dataset, trainFrac float64, rng *rand.Rand) (train, test *Dataset) {
	byUser := make(map[uint32][]Rating)
	for _, r := range d.Ratings {
		byUser[r.User] = append(byUser[r.User], r)
	}
	users := make([]uint32, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	var tr, te []Rating
	for _, u := range users {
		rs := byUser[u]
		rng.Shuffle(len(rs), func(i, j int) { rs[i], rs[j] = rs[j], rs[i] })
		cut := int(float64(len(rs)) * trainFrac)
		if cut == len(rs) && len(rs) > 1 {
			cut = len(rs) - 1
		}
		if cut == 0 && len(rs) > 1 {
			cut = 1
		}
		tr = append(tr, rs[:cut]...)
		te = append(te, rs[cut:]...)
	}
	train = &Dataset{Ratings: tr, NumUsers: d.NumUsers, NumItems: d.NumItems}
	test = &Dataset{Ratings: te, NumUsers: d.NumUsers, NumItems: d.NumItems}
	return train, test
}

// mapPartitionUsersAcross is PartitionUsersAcross as it was built on a map
// from user to ratings.
func mapPartitionUsersAcross(d *Dataset, n int, rng *rand.Rand) ([][]Rating, error) {
	if len(d.Ratings) == 0 {
		return nil, ErrNoRatings
	}
	byUser := make(map[uint32][]Rating)
	for _, r := range d.Ratings {
		byUser[r.User] = append(byUser[r.User], r)
	}
	users := make([]uint32, 0, len(byUser))
	for u := range byUser {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool { return users[i] < users[j] })
	rng.Shuffle(len(users), func(i, j int) { users[i], users[j] = users[j], users[i] })
	parts := make([][]Rating, n)
	for i, u := range users {
		node := i % n
		parts[node] = append(parts[node], byUser[u]...)
	}
	return parts, nil
}

// groupingCases are the inputs the grouped split and placement must agree
// with the map oracle on, rng draws included.
func groupingCases() map[string][]Rating {
	rng := rand.New(rand.NewSource(42))
	unsorted := mkRatings(3_000, 97, 400, 3)
	sparse := make([]Rating, 2_000)
	ids := []uint32{0, 1, 1 << 31, 1<<32 - 2, 1<<32 - 1}
	for i := range sparse {
		u := ids[rng.Intn(len(ids))]
		if rng.Intn(3) == 0 {
			u = rng.Uint32()
		}
		sparse[i] = Rating{User: u, Item: rng.Uint32(), Value: float32(i)}
	}
	grouped := slices.Clone(unsorted)
	slices.SortStableFunc(grouped, func(a, b Rating) int { return cmp.Compare(a.User, b.User) })
	single := make([]Rating, 50)
	for i := range single {
		single[i] = Rating{User: 7, Item: uint32(i), Value: float32(i)}
	}
	return map[string][]Rating{
		"unsorted":   unsorted,
		"sparse ids": sparse,
		"grouped":    grouped,
		"one user":   single,
		"one rating": {{User: 3, Item: 4, Value: 5}},
		"few users":  mkRatings(12, 3, 40, 5),
		"nil":        nil,
		"empty":      {},
	}
}

func TestSplitPerUserMatchesMapOracle(t *testing.T) {
	for name, rs := range groupingCases() {
		in := slices.Clone(rs)
		d := &Dataset{Ratings: rs, NumUsers: 5, NumItems: 9}
		for _, frac := range []float64{0, 0.3, 0.7, 1} {
			ra, rb := rand.New(rand.NewSource(11)), rand.New(rand.NewSource(11))
			wantTr, wantTe := mapSplitPerUser(d, frac, ra)
			gotTr, gotTe := d.SplitPerUser(frac, rb)
			if !reflect.DeepEqual(gotTr, wantTr) || !reflect.DeepEqual(gotTe, wantTe) {
				t.Fatalf("%s, frac %v: split differs from the map oracle", name, frac)
			}
			if ra.Int63() != rb.Int63() {
				t.Fatalf("%s, frac %v: rng streams diverged", name, frac)
			}
			if !slices.Equal(rs, in) {
				t.Fatalf("%s, frac %v: input modified", name, frac)
			}
		}
	}
}

func TestPartitionUsersAcrossMatchesMapOracle(t *testing.T) {
	for name, rs := range groupingCases() {
		in := slices.Clone(rs)
		d := New(rs)
		for _, n := range []int{1, 2, 3, 8, 50, 200} {
			ra, rb := rand.New(rand.NewSource(13)), rand.New(rand.NewSource(13))
			want, wantErr := mapPartitionUsersAcross(d, n, ra)
			got, err := d.PartitionUsersAcross(n, rb)
			if err != wantErr || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %d nodes: placement (err %v) differs from the map oracle (err %v)", name, n, err, wantErr)
			}
			if ra.Int63() != rb.Int63() {
				t.Fatalf("%s, %d nodes: rng streams diverged", name, n)
			}
			if !slices.Equal(rs, in) {
				t.Fatalf("%s, %d nodes: input modified", name, n)
			}
		}
	}
}
