package mf

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"
)

// occupied counts the ids in the index.
func (x *idIndex) occupied() int {
	n := 0
	for _, c := range x.cells {
		if c != 0 {
			n++
		}
	}
	return n
}

// idWithHash inverts idHash: the multiplier is odd, so it has an inverse
// modulo 2^32 (Newton's iteration doubles the correct low bits each round).
func idWithHash(h uint32) int32 {
	const m = uint32(2654435761)
	inv := m
	for i := 0; i < 5; i++ {
		inv *= 2 - m*inv
	}
	return int32(h * inv)
}

// tagTwin returns the id whose hash has id's tag bits at the table size of
// mask and a home cell delta (not a multiple of the table size) past id's.
// The hash is a bijection, so equal tags force different homes: a twin can
// only meet id's cell by probing past its own home.
func tagTwin(id int32, mask uint32, delta int) int32 {
	h := idHash(id)
	return idWithHash(h&^mask | (h+uint32(delta))&mask)
}

// tagCollisions walks id's probe run as get does and counts the cells whose
// tag matches the id's hash while the slot they point at holds another id:
// the steps where only the confirming load tells the two apart.
func (x *idIndex) tagCollisions(ids []int32, id int32) int {
	if len(x.cells) == 0 {
		return 0
	}
	n := 0
	mask := uint32(len(x.cells) - 1)
	h := idHash(id)
	for i := h & mask; x.cells[i] != 0; i = (i + 1) & mask {
		if c := x.cells[i]; (c^h)&^mask == 0 {
			if ids[c&mask-1] == id {
				break
			}
			n++
		}
	}
	return n
}

// TestIDIndexMatchesMapModel drives the index and a map through random
// inserts, hits and misses, half of them on adversarial ids: ones built to
// share every tag bit with a stored id at the current table size and to
// home one to three cells before or after it, so that the two meet in one
// probe run. The index holds no id, so they are told apart only by the
// confirming load; the test counts those steps and fails if none was taken
// on a hit or on a miss.
func TestIDIndexMatchesMapModel(t *testing.T) {
	if id := int32(123456789); idWithHash(idHash(id)) != id || idWithHash(idHash(-7)) != -7 {
		t.Fatal("idWithHash does not invert idHash")
	}
	var hitCollisions, missCollisions, growths int
	for trial := int64(0); trial < 8; trial++ {
		rng := rand.New(rand.NewSource(70 + trial))
		var x idIndex
		var ids []int32
		model := map[int32]int32{}
		candidate := func() int32 {
			if len(ids) == 0 || rng.Intn(2) == 0 {
				return int32(rng.Intn(1 << 16))
			}
			delta := 1 + rng.Intn(3)
			if rng.Intn(2) == 0 {
				delta = -delta
			}
			return tagTwin(ids[rng.Intn(len(ids))], uint32(len(x.cells)-1), delta)
		}
		lookup := func(step int, id int32) {
			slot, ok := x.get(ids, id)
			want, present := model[id]
			if ok != present || (ok && slot != want) {
				t.Fatalf("trial %d step %d: get(%d) = %d, %v; model %d, %v", trial, step, id, slot, ok, want, present)
			}
			if present {
				hitCollisions += x.tagCollisions(ids, id)
			} else {
				missCollisions += x.tagCollisions(ids, id)
			}
		}
		for step := 0; step < 3000; step++ {
			id := candidate()
			lookup(step, id)
			if _, present := model[id]; !present && rng.Intn(3) == 0 {
				cells := len(x.cells)
				model[id] = int32(len(ids))
				ids = append(ids, id)
				x.add(ids)
				if len(x.cells) != cells {
					growths++
					for slot, id := range ids { // every cell was re-derived
						if got, ok := x.get(ids, id); !ok || int(got) != slot {
							t.Fatalf("trial %d: after growth to %d cells get(%d) = %d, %v; want slot %d", trial, len(x.cells), id, got, ok, slot)
						}
					}
				}
			}
			if len(ids) > 0 {
				lookup(step, ids[rng.Intn(len(ids))])
			}
		}
		if x.occupied() != len(ids) || 4*len(ids) > 3*len(x.cells) {
			t.Fatalf("trial %d: %d cells hold %d entries for %d ids", trial, len(x.cells), x.occupied(), len(ids))
		}
	}
	if growths < 4*8 {
		t.Fatalf("%d index growths over 8 trials, want at least four a trial", growths)
	}
	if hitCollisions == 0 || missCollisions == 0 {
		t.Fatalf("tag collisions stepped over: %d on hits, %d on misses; the adversarial ids are not reaching the confirm", hitCollisions, missCollisions)
	}
}

// TestTagCollisionInOneProbeRun pins the adversarial case by hand in a
// 16-cell table: b homes one cell past a and shares its tag, a bystander
// takes a's home first, so a is displaced past b's cell and every lookup of
// a — and of an absent id with the same tag — steps over a matching tag.
func TestTagCollisionInOneProbeRun(t *testing.T) {
	const mask = 15
	a := int32(4242)
	b, absent := tagTwin(a, mask, 1), tagTwin(a, mask, 2)
	bystander := idWithHash(^idHash(a)&^mask | idHash(a)&mask) // a's home, no tag bit in common
	var x idIndex
	var ids []int32
	for _, id := range []int32{bystander, b, a} {
		ids = append(ids, id)
		x.add(ids)
	}
	for slot, id := range ids {
		if got, ok := x.get(ids, id); !ok || int(got) != slot {
			t.Fatalf("get(%d) = %d, %v; want slot %d", id, got, ok, slot)
		}
	}
	if _, ok := x.get(ids, absent); ok {
		t.Fatal("an absent id is reported present in the slot of its tag twin")
	}
	if x.tagCollisions(ids, a) != 1 || x.tagCollisions(ids, absent) != 1 {
		t.Fatalf("lookups stepped over %d and %d matching tags, want 1 and 1",
			x.tagCollisions(ids, a), x.tagCollisions(ids, absent))
	}
}

// TestTableIndexRoundTrips checks the index through the table operations
// that build or copy it: reserve followed by ascending appendRow (the
// Unmarshal path, on a cold and on a warm table), clone and copyFrom.
func TestTableIndexRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lookups := func(name string, tab *table, ids []int) {
		t.Helper()
		if tab.count() != len(ids) || tab.idx.occupied() != len(ids) {
			t.Fatalf("%s: %d rows, %d index entries, want %d", name, tab.count(), tab.idx.occupied(), len(ids))
		}
		for slot, id := range ids {
			if got, ok := tab.idx.get(tab.ids, int32(id)); !ok || int(got) != slot {
				t.Fatalf("%s: id %d at slot %d (%v), want %d", name, id, got, ok, slot)
			}
			if _, ok := tab.slot(int32(id + 1)); ok != slices.Contains(ids, id+1) {
				t.Fatalf("%s: slot(%d) found is %v", name, id+1, ok)
			}
		}
	}
	tab := newTable(4, 1, 0.1)
	warm := newTable(4, 1, 0.1)
	for _, n := range []int{0, 1, 12, 13, 97, 400, 30} { // the last two reuse a larger index
		ids := make([]int, 0, n)
		for id := 0; len(ids) < n; id += 1 + rng.Intn(5) {
			ids = append(ids, id)
		}
		tab.reserve(n)
		for _, id := range ids {
			tab.appendRow(id)
		}
		lookups("reserve+appendRow", tab, ids)
		lookups("clone", tab.clone(), ids)
		warm.copyFrom(tab)
		lookups("copyFrom", warm, ids)
	}
}

// TestIDIndexFootprint pins the cell layout: one array of four-byte cells.
func TestIDIndexFootprint(t *testing.T) {
	var x idIndex
	if unsafe.Sizeof(x) != unsafe.Sizeof(x.cells) || unsafe.Sizeof(x.cells[0]) != 4 {
		t.Fatalf("the index is %d bytes of header over %d-byte cells, want one slice of 4-byte cells",
			unsafe.Sizeof(x), unsafe.Sizeof(x.cells[0]))
	}
	tab := newTable(4, 1, 0.1)
	for id := 0; id < 10_000; id++ {
		tab.appendRow(id * 3)
	}
	if per := float64(4*len(tab.idx.cells)) / float64(tab.count()); per > 4/0.375 {
		t.Fatalf("%.1f index bytes per row, bound %.1f", per, 4/0.375)
	}
}
