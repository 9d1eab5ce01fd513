package dataset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mkRatings(n int, users, items uint32, seed int64) []Rating {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Rating, 0, n)
	seen := make(map[uint64]bool)
	for len(out) < n {
		r := Rating{
			User:  uint32(rng.Intn(int(users))),
			Item:  uint32(rng.Intn(int(items))),
			Value: float32(rng.Intn(10)+1) / 2,
		}
		if seen[r.Key()] {
			continue
		}
		seen[r.Key()] = true
		out = append(out, r)
	}
	return out
}

func TestNewDerivesBounds(t *testing.T) {
	rs := []Rating{{User: 3, Item: 7, Value: 4}, {User: 1, Item: 9, Value: 2}}
	d := New(rs)
	if d.NumUsers != 4 || d.NumItems != 10 {
		t.Fatalf("bounds: got %d users %d items", d.NumUsers, d.NumItems)
	}
}

func TestNewEmpty(t *testing.T) {
	d := New(nil)
	if d.NumUsers != 0 || d.NumItems != 0 || len(d.Ratings) != 0 {
		t.Fatalf("empty dataset has nonzero shape: %+v", d)
	}
}

func TestSplitPreservesMultiset(t *testing.T) {
	d := New(mkRatings(500, 20, 80, 3))
	tr, te := d.SplitPerUser(0.5, rand.New(rand.NewSource(4)))
	seen := make(map[uint64]float32, len(d.Ratings))
	for _, r := range d.Ratings {
		seen[r.Key()] = r.Value
	}
	for _, half := range [][]Rating{tr.Ratings, te.Ratings} {
		for _, r := range half {
			v, ok := seen[r.Key()]
			if !ok || v != r.Value {
				t.Fatalf("rating %+v not in original", r)
			}
			delete(seen, r.Key())
		}
	}
	if len(seen) != 0 {
		t.Fatalf("%d ratings missing from the split", len(seen))
	}
}

func TestSplitPerUserBothHalves(t *testing.T) {
	d := New(mkRatings(800, 25, 100, 5))
	tr, te := d.SplitPerUser(0.7, rand.New(rand.NewSource(6)))
	if len(tr.Ratings)+len(te.Ratings) != len(d.Ratings) {
		t.Fatalf("per-user split loses ratings")
	}
	count := make(map[uint32]int)
	for _, r := range d.Ratings {
		count[r.User]++
	}
	trainUsers := make(map[uint32]bool)
	for _, r := range tr.Ratings {
		trainUsers[r.User] = true
	}
	testUsers := make(map[uint32]bool)
	for _, r := range te.Ratings {
		testUsers[r.User] = true
	}
	for u, c := range count {
		// every user with >=2 ratings must appear in both halves
		if c >= 2 && (!trainUsers[u] || !testUsers[u]) {
			t.Fatalf("user %d (%d ratings) missing from a half", u, c)
		}
	}
}

func TestPartitionPerUser(t *testing.T) {
	d := New(mkRatings(300, 15, 60, 7))
	parts, err := d.PartitionPerUser()
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != d.NumUsers {
		t.Fatalf("got %d parts want %d", len(parts), d.NumUsers)
	}
	total := 0
	for u, p := range parts {
		total += len(p)
		for _, r := range p {
			if int(r.User) != u {
				t.Fatalf("rating of user %d in partition %d", r.User, u)
			}
		}
	}
	if total != len(d.Ratings) {
		t.Fatalf("partitions cover %d of %d ratings", total, len(d.Ratings))
	}
}

func TestPartitionPerUserEmpty(t *testing.T) {
	if _, err := New(nil).PartitionPerUser(); err != ErrNoRatings {
		t.Fatalf("want ErrNoRatings, got %v", err)
	}
}

func TestPartitionUsersAcross(t *testing.T) {
	d := New(mkRatings(600, 30, 90, 8))
	const n = 7
	parts, err := d.PartitionUsersAcross(n, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != n {
		t.Fatalf("got %d parts", len(parts))
	}
	// Users must never be split across nodes.
	owner := make(map[uint32]int)
	total := 0
	for node, p := range parts {
		total += len(p)
		for _, r := range p {
			if prev, ok := owner[r.User]; ok && prev != node {
				t.Fatalf("user %d split across nodes %d and %d", r.User, prev, node)
			}
			owner[r.User] = node
		}
	}
	if total != len(d.Ratings) {
		t.Fatalf("partitions cover %d of %d", total, len(d.Ratings))
	}
}

func TestPartitionUsersAcrossBadCount(t *testing.T) {
	d := New(mkRatings(10, 5, 5, 1))
	if _, err := d.PartitionUsersAcross(0, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("expected error for n=0")
	}
}

func TestPartitionDeterministicInSeed(t *testing.T) {
	d := New(mkRatings(400, 20, 50, 10))
	a, _ := d.PartitionUsersAcross(5, rand.New(rand.NewSource(11)))
	b, _ := d.PartitionUsersAcross(5, rand.New(rand.NewSource(11)))
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("partition %d differs under equal seeds", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("partition %d entry %d differs", i, j)
			}
		}
	}
}

func TestRatingKeyUnique(t *testing.T) {
	f := func(u1, i1, u2, i2 uint32) bool {
		k1 := Rating{User: u1, Item: i1}.Key()
		k2 := Rating{User: u2, Item: i2}.Key()
		return (k1 == k2) == (u1 == u2 && i1 == i2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
