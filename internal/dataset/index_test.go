package dataset

import (
	"math/rand"
	"testing"
	"unsafe"
)

// unmix64 inverts mix64, so a test can ask for a key whose hash has chosen
// bits instead of searching for one (a full 32-bit collision would
// otherwise be a ~2^16-key birthday search).
func unmix64(x uint64) uint64 {
	x ^= x>>31 ^ x>>62
	x *= 0x319642b2d24d8ec3
	x ^= x>>27 ^ x>>54
	x *= 0x96de1b173f119089
	x ^= x>>30 ^ x>>60
	return x
}

// tagTwin returns a key other than key whose hash has key's tag bits at
// the table size of mask and a home cell delta past key's. delta 0 gives a
// full 32-bit collision: same home, same tag, at every table size.
func tagTwin(key uint64, mask uint32, delta int, rng *rand.Rand) uint64 {
	h := uint32(mix64(key))
	h = h&^mask | (h+uint32(delta))&mask
	for {
		if twin := unmix64(uint64(rng.Uint32())<<32 | uint64(h)); twin != key {
			return twin
		}
	}
}

// tagCollisions walks key's probe run as get does and counts the cells
// whose tag matches the key's hash while the rating they point at is some
// other key: the steps where only the confirming load tells the two apart.
func (x *keyIndex) tagCollisions(ratings []Rating, key uint64) int {
	if len(x.cells) == 0 {
		return 0
	}
	n := 0
	mask := uint32(len(x.cells) - 1)
	h := uint32(mix64(key))
	for i := h & mask; x.cells[i] != 0; i = (i + 1) & mask {
		if c := x.cells[i]; (c^h)&^mask == 0 {
			if ratings[c&mask-1].Key() == key {
				break
			}
			n++
		}
	}
	return n
}

func keyRating(key uint64, value float32) Rating {
	return Rating{User: uint32(key >> 32), Item: uint32(key), Value: value}
}

// storeModel is the reference the Store is checked against: a map for the
// dedup decision and the keys in first-occurrence order.
type storeModel struct {
	values   map[uint64]float32
	order    []uint64
	appended int
}

func (m *storeModel) append(rs []Rating) (added int) {
	for _, r := range rs {
		m.appended++
		if _, ok := m.values[r.Key()]; !ok {
			m.order = append(m.order, r.Key())
			added++
		}
		m.values[r.Key()] = r.Value
	}
	return added
}

// check compares everything the Store exposes with the model.
func (m *storeModel) check(t *testing.T, s *Store) {
	t.Helper()
	if s.Len() != len(m.order) || s.Duplicates() != m.appended-len(m.order) {
		t.Fatalf("Len %d Duplicates %d, model %d and %d", s.Len(), s.Duplicates(), len(m.order), m.appended-len(m.order))
	}
	for pos, r := range s.Ratings() {
		if r.Key() != m.order[pos] || r.Value != m.values[r.Key()] {
			t.Fatalf("position %d holds %+v, model key %#x value %v", pos, r, m.order[pos], m.values[m.order[pos]])
		}
		if got, ok := s.index.get(s.ratings, r.Key()); !ok || got != pos {
			t.Fatalf("index finds %+v at %d (%v), it is at %d", r, got, ok, pos)
		}
	}
}

func TestUnmix64InvertsMix64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		if x := rng.Uint64(); mix64(unmix64(x)) != x || unmix64(mix64(x)) != x {
			t.Fatalf("unmix64 does not invert mix64 at %#x", x)
		}
	}
}

// TestStoreMatchesMapModel drives a Store and the map model through random
// batches of fresh keys, re-sent keys with drifting values and adversarial
// keys — ones built to share every tag bit with a stored key at the current
// table size while homing in the same probe run, and full 32-bit hash
// collisions — and through lookups of such keys while they are absent. The
// index holds no key, so each of these is told apart only by the confirming
// load: the test counts those steps and fails if none was taken on a hit or
// on a miss.
func TestStoreMatchesMapModel(t *testing.T) {
	var hitCollisions, missCollisions, growths int
	for trial := int64(0); trial < 8; trial++ {
		rng := rand.New(rand.NewSource(40 + trial))
		s := NewStore(nil)
		m := &storeModel{values: map[uint64]float32{}}
		value := func() float32 { return float32(rng.Intn(10)+1) / 2 }
		twin := func() uint64 {
			mask := uint32(max(len(s.index.cells), 16) - 1)
			return tagTwin(m.order[rng.Intn(len(m.order))], mask, rng.Intn(4)-1, rng)
		}
		for step := 0; step < 300; step++ {
			batch := make([]Rating, 0, 8)
			for n := 1 + rng.Intn(8); n > 0; n-- {
				switch k := rng.Intn(10); {
				case k < 3 && len(m.order) > 0: // a stored key again, perhaps re-rated
					key := m.order[rng.Intn(len(m.order))]
					v := m.values[key]
					if rng.Intn(2) == 0 {
						v = value()
					}
					batch = append(batch, keyRating(key, v))
				case k < 6 && len(m.order) > 0:
					batch = append(batch, keyRating(twin(), value()))
				default:
					batch = append(batch, Rating{User: uint32(rng.Intn(50)), Item: uint32(rng.Intn(2000)), Value: value()})
				}
			}
			cells := len(s.index.cells)
			if got, want := s.Append(batch), m.append(batch); got != want {
				t.Fatalf("trial %d step %d: Append added %d, model %d", trial, step, got, want)
			}
			if len(s.index.cells) != cells {
				growths++
				m.check(t, s) // every cell was re-derived
			}
			for probe := 0; probe < 4; probe++ {
				key := twin()
				_, want := m.values[key]
				if got := s.Contains(uint32(key>>32), uint32(key)); got != want {
					t.Fatalf("trial %d step %d: Contains(%#x) = %v, model %v", trial, step, key, got, want)
				}
				if !want {
					missCollisions += s.index.tagCollisions(s.ratings, key)
				}
			}
			key := m.order[rng.Intn(len(m.order))]
			hitCollisions += s.index.tagCollisions(s.ratings, key)
		}
		m.check(t, s)
	}
	if growths < 4*8 {
		t.Fatalf("%d index growths over 8 trials, want at least four a trial", growths)
	}
	if hitCollisions == 0 || missCollisions == 0 {
		t.Fatalf("tag collisions stepped over: %d on hits, %d on misses; the adversarial keys are not reaching the confirm", hitCollisions, missCollisions)
	}
}

// TestFullHashCollisionKeepsKeysApart pins the worst case by hand: keys
// whose 32-bit hashes are equal share a home cell and a tag at every table
// size, before and after growth.
func TestFullHashCollisionKeepsKeysApart(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	first := Rating{User: 3, Item: 9}.Key()
	keys := []uint64{first}
	for len(keys) < 4 {
		keys = append(keys, tagTwin(first, 0, 0, rng))
	}
	absent := tagTwin(first, 0, 0, rng)
	s := NewStore(nil)
	for i, key := range keys {
		if s.Append([]Rating{keyRating(key, float32(i))}) != 1 {
			t.Fatalf("colliding key %d rejected as a duplicate", i)
		}
	}
	for n := uint32(0); s.Len() < 200; n++ { // through four doublings
		s.Append([]Rating{{User: 1000 + n, Item: n}})
	}
	for i, key := range keys {
		pos, ok := s.index.get(s.ratings, key)
		if !ok || pos != i || s.ratings[pos].Value != float32(i) {
			t.Fatalf("colliding key %d found at %d (%v)", i, pos, ok)
		}
	}
	if s.Contains(uint32(absent>>32), uint32(absent)) {
		t.Fatal("an absent key with a stored key's full hash is reported present")
	}
	if n := s.index.tagCollisions(s.ratings, absent); n != len(keys) {
		t.Fatalf("the absent key's probe run confirmed against %d colliding cells, want %d", n, len(keys))
	}
}

// TestStoreFootprint bounds what a stored rating costs in resident bytes:
// its 12 bytes plus four-byte cells at a load between 3/8 and 3/4.
func TestStoreFootprint(t *testing.T) {
	var x keyIndex
	if unsafe.Sizeof(x) != unsafe.Sizeof(x.cells) || unsafe.Sizeof(x.cells[0]) != 4 {
		t.Fatalf("the index is %d bytes of header over %d-byte cells, want one slice of 4-byte cells",
			unsafe.Sizeof(x), unsafe.Sizeof(x.cells[0]))
	}
	const bound = float64(unsafe.Sizeof(Rating{})) + 4/0.375
	for _, n := range []int{100, 10_000, 50_000} {
		s := NewStore(nil)
		for i := 0; i < n; i++ {
			s.Append([]Rating{{User: uint32(i % 97), Item: uint32(i)}})
		}
		got := float64(len(s.ratings)*int(unsafe.Sizeof(Rating{}))+4*len(s.index.cells)) / float64(n)
		if got > bound {
			t.Errorf("%d ratings: %.1f resident bytes each before append slack, bound %.1f", n, got, bound)
		}
	}
}

// FuzzStoreAppend turns the input into ratings over a key space small
// enough to repeat keys, appends them in uneven batches and compares the
// Store with the map model. The seeds are under testdata/fuzz.
func FuzzStoreAppend(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		s := NewStore(nil)
		m := &storeModel{values: map[uint64]float32{}}
		for len(b) >= 3 {
			n := min(1+int(b[0])%5, len(b)/3)
			batch := make([]Rating, n)
			for i := range batch {
				batch[i] = Rating{User: uint32(b[0] >> 4), Item: uint32(b[0]&15)<<8 | uint32(b[1]), Value: float32(b[2]%10+1) / 2}
				b = b[3:]
			}
			if got, want := s.Append(batch), m.append(batch); got != want {
				t.Fatalf("Append added %d, model %d", got, want)
			}
		}
		m.check(t, s)
		for _, key := range m.order { // the next item over: mostly misses
			user, item := uint32(key>>32), uint32(key)+1
			_, want := m.values[Rating{User: user, Item: item}.Key()]
			if !s.Contains(user, uint32(key)) || s.Contains(user, item) != want {
				t.Fatalf("Contains(%d, %d) = %v, model %v", user, item, !want, want)
			}
		}
	})
}
