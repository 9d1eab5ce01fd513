package dataset

import (
	"math/rand"
	goruntime "runtime"
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestStoreDedup(t *testing.T) {
	s := NewStore([]Rating{{1, 1, 3}, {1, 2, 4}})
	added := s.Append([]Rating{{1, 1, 3}, {2, 2, 5}})
	if added != 1 {
		t.Fatalf("added = %d want 1", added)
	}
	if s.Len() != 3 {
		t.Fatalf("len = %d want 3", s.Len())
	}
	if s.Duplicates() != 1 {
		t.Fatalf("duplicates = %d want 1", s.Duplicates())
	}
}

func TestStoreDuplicateUpdatesValue(t *testing.T) {
	s := NewStore([]Rating{{1, 1, 3}})
	s.Append([]Rating{{1, 1, 5}})
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	if got := s.Ratings()[0].Value; got != 5 {
		t.Fatalf("newest opinion must win: got %v", got)
	}
}

func TestStoreContains(t *testing.T) {
	s := NewStore([]Rating{{4, 9, 1}})
	if !s.Contains(4, 9) {
		t.Fatal("missing stored rating")
	}
	if s.Contains(9, 4) {
		t.Fatal("contains swapped pair")
	}
}

func TestStoreSampleSizes(t *testing.T) {
	rs := mkRatings(100, 10, 50, 1)
	s := NewStore(rs)
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 10, 99, 100, 500} {
		got := s.Sample(n, rng)
		want := n
		if want > 100 {
			want = 100
		}
		if len(got) != want {
			t.Fatalf("sample(%d) returned %d", n, len(got))
		}
	}
}

func TestStoreSampleDistinctAndSubset(t *testing.T) {
	rs := mkRatings(200, 20, 60, 3)
	s := NewStore(rs)
	in := make(map[uint64]bool, len(rs))
	for _, r := range rs {
		in[r.Key()] = true
	}
	rng := rand.New(rand.NewSource(4))
	sample := s.Sample(50, rng)
	seen := make(map[uint64]bool)
	for _, r := range sample {
		if !in[r.Key()] {
			t.Fatalf("sampled rating %+v not in store", r)
		}
		if seen[r.Key()] {
			t.Fatalf("duplicate in one sample: %+v", r)
		}
		seen[r.Key()] = true
	}
}

// TestStoreStatelessSampling checks the paper's §III-E property: sampling
// keeps no state, so across epochs the same point can recur.
func TestStoreStatelessSampling(t *testing.T) {
	rs := mkRatings(30, 5, 20, 5)
	s := NewStore(rs)
	rng := rand.New(rand.NewSource(6))
	counts := make(map[uint64]int)
	for epoch := 0; epoch < 50; epoch++ {
		for _, r := range s.Sample(10, rng) {
			counts[r.Key()]++
		}
	}
	repeats := 0
	for _, c := range counts {
		if c > 1 {
			repeats++
		}
	}
	if repeats == 0 {
		t.Fatal("stateless sampling should repeat points across epochs")
	}
}

func TestStoreAppendIdempotentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rs := mkRatings(50, 8, 30, seed%1000)
		s := NewStore(rs)
		before := s.Len()
		s.Append(rs) // appending the same data adds nothing
		return s.Len() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreBytes(t *testing.T) {
	s := NewStore(mkRatings(17, 5, 10, 7))
	if s.Bytes() != 17*EncodedSize {
		t.Fatalf("bytes = %d", s.Bytes())
	}
}

// TestStoreSnapshotIndependent: nothing the store does after a snapshot
// reaches it — not an append that fits the store's spare capacity, not a
// new value for a point the snapshot holds — while the store itself takes
// both.
func TestStoreSnapshotIndependent(t *testing.T) {
	s := NewStore([]Rating{{1, 1, 3}, {2, 2, 4}, {3, 3, 2}})
	if cap(s.Ratings()) == s.Len() {
		t.Fatal("store has no spare capacity: the append below would not share the snapshot's array")
	}
	snap := s.Snapshot()
	s.Append([]Rating{{4, 4, 5}})
	s.Append([]Rating{{1, 1, 1}})
	if want := []Rating{{1, 1, 3}, {2, 2, 4}, {3, 3, 2}}; !slices.Equal(snap, want) {
		t.Fatalf("snapshot reads %v after later appends, want %v", snap, want)
	}
	if want := []Rating{{1, 1, 1}, {2, 2, 4}, {3, 3, 2}, {4, 4, 5}}; !slices.Equal(s.Ratings(), want) {
		t.Fatalf("store reads %v, want %v", s.Ratings(), want)
	}
}

// TestStoreSnapshotsMatchCopies runs random sequences of new points,
// duplicates with the stored value, duplicates with a new value and
// snapshots against a reference that copies on every snapshot: after every
// operation, every retained snapshot reads exactly its copy, and the store
// reads the reference. A reader goroutine compares the retained snapshots
// all the while, so under -race a store write into shared memory is a
// reported race even where the values happen to match.
func TestStoreSnapshotsMatchCopies(t *testing.T) {
	type kept struct{ snap, copy []Rating }
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		held := make(chan kept)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			var retained []kept
			for {
				select {
				case k, ok := <-held:
					if !ok {
						return
					}
					retained = append(retained, k)
				default:
					for i, k := range retained {
						if !slices.Equal(k.snap, k.copy) {
							t.Errorf("seed %d: reader sees snapshot %d diverge from its copy", seed, i)
							retained = nil
							break
						}
					}
					goruntime.Gosched()
				}
			}
		}()

		s := NewStore(nil)
		var ref []Rating
		pos := map[uint64]int{}
		var retained []kept
		for op := 0; op < 300; op++ {
			if rng.Intn(5) == 0 {
				k := kept{s.Snapshot(), slices.Clone(ref)}
				retained = append(retained, k)
				held <- k
			} else {
				batch := make([]Rating, 1+rng.Intn(3))
				for i := range batch {
					r := Rating{User: uint32(rng.Intn(6)), Item: uint32(rng.Intn(40)), Value: float32(1 + rng.Intn(5))}
					if len(ref) > 0 && rng.Intn(2) == 0 {
						r = ref[rng.Intn(len(ref))] // a duplicate: same value, or a new one
						if rng.Intn(2) == 0 {
							r.Value += 0.5
						}
					}
					batch[i] = r
					if p, ok := pos[r.Key()]; ok {
						ref[p].Value = r.Value
					} else {
						pos[r.Key()] = len(ref)
						ref = append(ref, r)
					}
				}
				s.Append(batch)
			}
			if !slices.Equal(s.Ratings(), ref) {
				t.Fatalf("seed %d op %d: store diverged from the reference", seed, op)
			}
			for i, k := range retained {
				if !slices.Equal(k.snap, k.copy) {
					t.Fatalf("seed %d op %d: snapshot %d reads %v, its copy %v", seed, op, i, k.snap, k.copy)
				}
			}
		}
		close(held)
		wg.Wait()
	}
}

func TestStoreInsertionOrderStable(t *testing.T) {
	a := []Rating{{3, 3, 1}, {1, 1, 2}, {2, 2, 3}}
	s := NewStore(a)
	s.Append([]Rating{{1, 1, 9}, {4, 4, 4}})
	got := s.Ratings()
	wantOrder := []uint32{3, 1, 2, 4}
	for i, u := range wantOrder {
		if got[i].User != u {
			t.Fatalf("order[%d] = user %d, want %d", i, got[i].User, u)
		}
	}
}

// TestSampleAppendMatchesPerm is the windowed sampler's contract: for any
// store size, sample size and seed it picks exactly rand.Perm(len)[:n] and
// leaves the rng where Perm would have.
func TestSampleAppendMatchesPerm(t *testing.T) {
	meta := rand.New(rand.NewSource(5))
	var perm []int
	for trial := 0; trial < 300; trial++ {
		size := 1 + meta.Intn(400)
		n := meta.Intn(size + 20) // sometimes >= size: the copy-everything path
		seed := meta.Int63()
		rs := make([]Rating, size)
		for i := range rs {
			rs[i] = Rating{User: uint32(i), Item: uint32(trial), Value: float32(i % 5)}
		}
		s := NewStore(rs)

		ref := rand.New(rand.NewSource(seed))
		var want []Rating
		if n >= size {
			want = rs
		} else {
			for _, j := range ref.Perm(size)[:n] {
				want = append(want, rs[j])
			}
		}
		rng := rand.New(rand.NewSource(seed))
		got := s.SampleAppend(nil, n, rng, &perm)
		if len(got) != len(want) {
			t.Fatalf("size=%d n=%d: %d picks, want %d", size, n, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("size=%d n=%d seed=%d: pick %d = %+v, want %+v", size, n, seed, i, got[i], want[i])
			}
		}
		if g, w := rng.Int63(), ref.Int63(); g != w {
			t.Fatalf("size=%d n=%d seed=%d: rng diverged after sampling", size, n, seed)
		}
	}
}

// TestSampleAppendSteadyStateAllocs guards the share path's sampler: with
// buffers that have held one sample it allocates nothing, and its scratch
// stays sample-sized however much the store has grown since.
func TestSampleAppendSteadyStateAllocs(t *testing.T) {
	rs := mkRatings(4000, 40, 500, 3)
	s := NewStore(rs[:1000])
	rng := rand.New(rand.NewSource(4))
	var perm []int
	dst := s.SampleAppend(nil, 300, rng, &perm)
	s.Append(rs[1000:])
	allocs := testing.AllocsPerRun(20, func() {
		dst = s.SampleAppend(dst[:0], 300, rng, &perm)
	})
	if allocs != 0 {
		t.Fatalf("steady-state SampleAppend allocates %.0f objects per call", allocs)
	}
	if cap(perm) != 300 {
		t.Fatalf("sampling scratch holds %d entries for a 300-point sample", cap(perm))
	}
}

var ratingsSink []Rating

// TestNewStoreSizesIndexOnce: a seeded store's index has the cell count
// appending its ratings one at a time reaches, and is allocated once —
// NewStore allocates the Store, the index and what the ratings slice's
// append growth allocates, nothing more.
func TestNewStoreSizesIndexOnce(t *testing.T) {
	for _, n := range []int{1, 12, 13, 24, 25, 100, 3_000} {
		rs := mkRatings(n, 50, 1_000, int64(n))
		inc := NewStore(nil)
		for _, r := range rs {
			inc.Append([]Rating{r})
		}
		s := NewStore(rs)
		if len(s.index.cells) != len(inc.index.cells) || !slices.Equal(s.ratings, inc.ratings) {
			t.Fatalf("%d ratings: NewStore holds %d cells, incremental appends %d", n, len(s.index.cells), len(inc.index.cells))
		}
		growth := testing.AllocsPerRun(10, func() {
			ratingsSink = nil
			for _, r := range rs {
				ratingsSink = append(ratingsSink, r)
			}
		})
		if got := testing.AllocsPerRun(10, func() { NewStore(rs) }); got != growth+2 {
			t.Fatalf("%d ratings: NewStore made %v allocations, want %v (Store, index, %v for the ratings)", n, got, growth+2, growth)
		}
	}
}
