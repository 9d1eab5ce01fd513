package mf

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rex/internal/model"
	"rex/internal/vec"
)

// lockstep fails unless tab's records and ids agree in length and in row
// capacity.
func lockstep(t *testing.T, what string, tab *table) {
	t.Helper()
	w := tab.k + 1
	if len(tab.rec) != w*len(tab.ids) || cap(tab.rec) != w*cap(tab.ids) {
		t.Fatalf("%s: rec %d/%d words, ids %d/%d rows (len/cap); want %d words a row in both",
			what, len(tab.rec), cap(tab.rec), len(tab.ids), cap(tab.ids), w)
	}
}

// TestTableRecordsGrowInLockstep pins the record layout's one growth rule:
// every operation that sizes a table leaves rec exactly k+1 words per id
// slot of capacity, and growing a table costs two allocations per growth,
// one for the records and one for the ids (the id index and the lazy id
// order grow on their own schedules and are counted apart).
func TestTableRecordsGrowInLockstep(t *testing.T) {
	const k = 10
	rng := rand.New(rand.NewSource(11))
	ascending := make([]int, 1000)
	for i := range ascending {
		ascending[i] = 3 * i
	}
	random := slices.Clone(ascending)
	rng.Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })

	for name, ids := range map[string][]int{"ascending": ascending, "random": random} {
		tab := newTable(k, 1, 0.1)
		for _, id := range ids {
			tab.appendRow(id)
			lockstep(t, name+" appendRow", tab)
		}
		lockstep(t, name+" clone", tab.clone())
		for _, into := range []*table{newTable(k, 1, 0.1), tab.clone(), newTable(k, 1, 0.1)} {
			into.copyFrom(tab)
			lockstep(t, name+" copyFrom", into)
		}
		for _, n := range []int{0, 7, 1000, 1200, 30} {
			tab.reserve(n)
			lockstep(t, name+" reserve", tab)
		}
	}

	m, wire := trainedOn(t, 12, 300, 200, 1)
	empty, _ := New(DefaultConfig()).Marshal()
	for _, src := range [][]byte{wire, empty} {
		if err := m.Unmarshal(src); err != nil {
			t.Fatal(err)
		}
		lockstep(t, "load users", m.users)
		lockstep(t, "load items", m.items)
	}

	// Count each array's growths on one pass, then the allocations of the
	// same pass: each row-capacity growth must cost exactly two.
	var tab table
	fill := func() {
		tab = table{k: k, seed: 1, initStd: 0.1}
		for _, id := range random {
			tab.appendRow(id)
		}
	}
	var growths, other int
	tab = table{k: k, seed: 1, initStd: 0.1}
	for _, id := range random {
		rows, cells, order := cap(tab.ids), len(tab.idx.cells), cap(tab.order)
		tab.appendRow(id)
		if cap(tab.ids) != rows {
			growths++
		}
		if len(tab.idx.cells) != cells {
			other++
		}
		if cap(tab.order) != order {
			other++
		}
	}
	if growths < 5 {
		t.Fatalf("test premise broken: %d growths to %d rows", growths, len(random))
	}
	if got := testing.AllocsPerRun(5, fill); got != float64(2*growths+other) {
		t.Fatalf("growing to %d rows allocated %.0f objects: %d growths, %d index and order allocations; want %d",
			len(random), got, growths, other, 2*growths+other)
	}
}

// TestOrderedRebuildDoesNotAllocate: a stale id order is rebuilt in the
// permutation array the table already holds, and the sort allocates nothing.
func TestOrderedRebuildDoesNotAllocate(t *testing.T) {
	m, _ := trainedOn(t, 13, 400, 300, 7)
	tab := m.users
	if slices.IsSorted(tab.ordered()) {
		t.Fatal("test premise broken: random-order training stored the ids in ascending slots")
	}
	if n := testing.AllocsPerRun(20, func() {
		tab.orderStale = true
		tab.ordered()
	}); n != 0 {
		t.Fatalf("rebuilding a stale id order allocates %.0f objects", n)
	}
	if len(tab.order) != tab.count() ||
		!slices.IsSortedFunc(tab.order, func(a, b int32) int { return cmp.Compare(tab.ids[a], tab.ids[b]) }) {
		t.Fatal("the rebuilt permutation does not walk every id in ascending order")
	}
}

// mergeRef is mergeTables as a per-id loop over id→record maps, in the
// scalar order the record kernels must reproduce: the weight sum from
// selfW then each holding source in peer order, dst scaled first, then
// each source added as float32(w*x). An id no source holds, or whose
// holders' weights sum to zero, is left as it was (absent stays absent).
// It also counts the ids skipped on a zero weight sum: with dst holding
// them, and without.
func mergeRef(width int, dst map[int32][]float32, selfW float32, srcs []map[int32][]float32, ws []float32) (out map[int32][]float32, skippedHeld, skippedAbsent int) {
	out = make(map[int32][]float32, len(dst))
	for id, r := range dst {
		out[id] = slices.Clone(r)
	}
	seen := map[int32]bool{} // ids only dst holds stay as copied
	for _, s := range srcs {
		for id := range s {
			if seen[id] {
				continue
			}
			seen[id] = true
			d, dstHas := dst[id]
			var wsum float32
			if dstHas {
				wsum = selfW
			}
			for si, s := range srcs {
				if _, ok := s[id]; ok {
					wsum += ws[si]
				}
			}
			switch {
			case wsum == 0 && dstHas:
				skippedHeld++
				continue
			case wsum == 0:
				skippedAbsent++
				continue
			}
			r := make([]float32, width)
			if dstHas {
				w := selfW / wsum
				for j := range r {
					r[j] = d[j] * w
				}
			}
			for si, s := range srcs {
				if x, ok := s[id]; ok {
					w := ws[si] / wsum
					for j := range r {
						r[j] += float32(w * x[j])
					}
				}
			}
			out[id] = r
		}
	}
	return out, skippedHeld, skippedAbsent
}

// records returns a table's contents as id→record, copied.
func records(tab *table) map[int32][]float32 {
	out := make(map[int32][]float32, tab.count())
	for s, id := range tab.ids {
		out[id] = slices.Clone(tab.record(int32(s)))
	}
	return out
}

// TestMergeMatchesScalarReference is the generative check on the record
// merge: random models — one to four sources whose id sets overlap dst's,
// are disjoint from it, or are empty; random touch orders; a self weight of
// zero among the choices; and weights that cancel to a zero sum — merged
// through MergeWeighted on every kernel implementation, must match
// mergeRef bit for bit, record by record.
func TestMergeMatchesScalarReference(t *testing.T) {
	prev := vec.Impl()
	defer func() {
		if err := vec.Use(prev); err != nil {
			t.Fatal(err)
		}
	}()
	weights := []float64{0, 0.25, 0.5, 1.0 / 3, -0.25, 0.75}
	for _, impl := range vec.Available() {
		if err := vec.Use(impl); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(17))
		var skippedHeld, skippedAbsent int
		for trial := 0; trial < 400; trial++ {
			cfg := DefaultConfig()
			cfg.K = []int{1, 3, 4, 7, 10, 16}[rng.Intn(6)]
			build := func(private int) *Model {
				m := New(cfg)
				for _, tab := range []*table{m.users, m.items} {
					lo, span := 0, 40 // the id range every model draws from
					switch rng.Intn(4) {
					case 0:
						continue // empty
					case 1:
						lo = 1000 * private // disjoint from every other model
					}
					for _, id := range rng.Perm(span)[:rng.Intn(span)] {
						r := tab.record(tab.appendRow(lo + id))
						for d := range r {
							r[d] = float32(rng.NormFloat64())
						}
					}
				}
				return m
			}
			dst := build(1)
			selfW := weights[rng.Intn(len(weights))]
			var others []model.Weighted
			var srcs [2][]map[int32][]float32
			var ws []float32
			for i := 0; i < 1+rng.Intn(4); i++ {
				o := build(2 + i)
				w := weights[rng.Intn(len(weights))]
				others = append(others, model.Weighted{M: o, W: w})
				srcs[0] = append(srcs[0], records(o.users))
				srcs[1] = append(srcs[1], records(o.items))
				ws = append(ws, float32(w))
			}
			var want [2]map[int32][]float32
			for side, tab := range []*table{dst.users, dst.items} {
				var held, absent int
				want[side], held, absent = mergeRef(cfg.K+1, records(tab), float32(selfW), srcs[side], ws)
				skippedHeld += held
				skippedAbsent += absent
			}
			dst.MergeWeighted(selfW, others)
			for side, tab := range []*table{dst.users, dst.items} {
				lockstep(t, "merge", tab)
				got := records(tab)
				if len(got) != len(want[side]) {
					t.Fatalf("%s trial %d side %d: %d records, reference %d", impl, trial, side, len(got), len(want[side]))
				}
				for id, w := range want[side] {
					g, ok := got[id]
					if !ok {
						t.Fatalf("%s trial %d side %d: id %d missing after the merge", impl, trial, side, id)
					}
					for d := range w {
						if math.Float32bits(g[d]) != math.Float32bits(w[d]) {
							t.Fatalf("%s trial %d side %d id %d word %d: %v, reference %v", impl, trial, side, id, d, g[d], w[d])
						}
					}
				}
			}
		}
		if skippedHeld == 0 || skippedAbsent == 0 {
			t.Fatalf("%s: zero weight sums skipped %d held and %d absent ids; the draws never reach the skip", impl, skippedHeld, skippedAbsent)
		}
	}
}
