package dataset

import (
	"math"
	"math/rand"
	"slices"
)

// keyIndex is the store's dedup index: an open-addressing hash from a
// Rating.Key() to its position in the ratings slice — linear probing from
// the hash's low bits, power-of-two capacity, at most 3/4 full, no
// deletion. A cell is four bytes and holds no key: it is the key's 32-bit
// hash with the low lg(len(cells)) bits replaced by position+1 (0 = empty;
// position+1 < len(cells) follows from the load bound). A probe step
// matches when the cell's tag bits equal the hash's, and every match is
// confirmed against ratings[position] before it is returned, so a tag
// collision costs one extra load and can never yield a wrong position.
// Growth re-derives every cell from the ratings, in order: the tag is one
// bit shorter after each doubling, so cells cannot be copied.
//
// That is 5.3–10.7 bytes of index per 12-byte rating (load 3/4 down to
// 3/8), a third of what cells that carried the 8-byte key beside the
// position held, and it rebuilds a quarter faster. The price is the
// confirming load on a hit: a cache-hot replay of duplicate-heavy merges
// reads 10–25 % slower, which a REX epoch does not see. The cheaper-looking
// layouts were measured and lost: cells with the position alone are the
// same size but read a cold rating at every occupied probe step (misses
// 15 % slower on a 120 k-rating store, and hits no faster there), and a
// 32-bit tag beside a 32-bit position costs no CPU but saves one third of
// the index, not two. The tag compare is the xor form on purpose: the shift
// form (cell>>lg == h>>lg) measured slower on the merge path.
type keyIndex struct {
	cells []uint32 // hash&^mask | position+1; 0 = empty
}

// mix64 is the splitmix64 finalizer — a full-avalanche 64-bit hash, so
// (user<<32|item) keys with few distinct low bits still spread evenly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// get returns key's position in ratings, the slice the index was built over.
func (x *keyIndex) get(ratings []Rating, key uint64) (int, bool) {
	if len(x.cells) == 0 {
		return 0, false
	}
	mask := uint32(len(x.cells) - 1)
	h := uint32(mix64(key))
	for i := h & mask; ; i = (i + 1) & mask {
		c := x.cells[i]
		if c == 0 {
			return 0, false
		}
		if (c^h)&^mask == 0 {
			if pos := int(c&mask) - 1; ratings[pos].Key() == key {
				return pos, true
			}
		}
	}
}

// indexCells is the cell count incremental adds reach after n distinct
// keys: the least power of two ≥ 16 that keeps the index ≤ 3/4 full.
func indexCells(n int) int {
	c := 16
	for 4*n > 3*c {
		c *= 2
	}
	return c
}

// add indexes the last element of ratings, whose key must be absent.
func (x *keyIndex) add(ratings []Rating) {
	if 4*len(ratings) > 3*len(x.cells) {
		x.cells = make([]uint32, max(16, 2*len(x.cells)))
		for pos, r := range ratings {
			x.place(r.Key(), pos)
		}
		return
	}
	x.place(ratings[len(ratings)-1].Key(), len(ratings)-1)
}

// place writes the cell of a key known to be absent.
func (x *keyIndex) place(key uint64, pos int) {
	mask := uint32(len(x.cells) - 1)
	h := uint32(mix64(key))
	i := h & mask
	for x.cells[i] != 0 {
		i = (i + 1) & mask
	}
	x.cells[i] = h&^mask | uint32(pos+1)
}

// Store is the raw-data store a REX enclave keeps in protected memory. It
// deduplicates on (user, item): the paper's sampling is stateless, so a node
// may receive the same data point more than once, and Algorithm 2 line 16
// appends only non-duplicate items. The Store preserves insertion order of
// first occurrence so training iteration is deterministic under a fixed rng.
//
// Snapshots share the store's memory. A published prefix is never written
// again: an overwrite inside it copies the slice first, and appends land
// past every snapshot's capacity.
type Store struct {
	ratings []Rating
	index   keyIndex // Key() -> position in ratings
	// appended counts total Append attempts; appended-Len() is the number
	// of duplicates rejected, a quantity surfaced in metrics.
	appended int
	// published is the length of the last snapshot taken of ratings'
	// current backing array: ratings[:published] is shared and read-only.
	published int
}

// NewStore creates a store seeded with the node's initial local ratings.
// Duplicate (user,item) pairs in the seed keep the last value. The index
// is allocated once, at the size appending initial one rating at a time
// reaches when it holds no duplicates, so later growth is unchanged.
func NewStore(initial []Rating) *Store {
	s := &Store{}
	if len(initial) > 0 {
		s.index.cells = make([]uint32, indexCells(len(initial)))
	}
	s.Append(initial)
	return s
}

// Append merges new ratings into the store, skipping duplicates. A
// duplicate with a different value updates the stored value (the newest
// opinion wins); it still counts as a duplicate for accounting. Inside
// the published prefix a value the store holds bit for bit is not
// written, so re-received points leave snapshots shared, and a new value
// first copies the store away from its snapshots. It returns the number
// of genuinely new data points added.
func (s *Store) Append(rs []Rating) int {
	added := 0
	for _, r := range rs {
		s.appended++
		if pos, ok := s.index.get(s.ratings, r.Key()); ok {
			if pos < s.published {
				if math.Float32bits(s.ratings[pos].Value) == math.Float32bits(r.Value) {
					continue
				}
				// The copy keeps the capacity, so the appends that follow
				// do not move the store again.
				s.ratings = append(make([]Rating, 0, cap(s.ratings)), s.ratings...)
				s.published = 0
			}
			s.ratings[pos].Value = r.Value
			continue
		}
		s.ratings = append(s.ratings, r)
		s.index.add(s.ratings)
		added++
	}
	return added
}

// Len returns the number of distinct data points held.
func (s *Store) Len() int { return len(s.ratings) }

// Duplicates returns how many appended points were rejected as duplicates.
func (s *Store) Duplicates() int { return s.appended - len(s.ratings) }

// Ratings exposes the backing slice for training loops. Callers must treat
// it as read-only, and must not retain it: the next Append may write into
// it or move it. A view to keep is Snapshot.
func (s *Store) Ratings() []Rating { return s.ratings }

// Contains reports whether the (user, item) interaction is present.
func (s *Store) Contains(user, item uint32) bool {
	_, ok := s.index.get(s.ratings, Rating{User: user, Item: item}.Key())
	return ok
}

// Sample draws n distinct data points uniformly at random, without
// replacement: it picks n distinct positions when n < Len, else returns a
// copy of everything. This implements the paper's stateless sampling
// (§III-E): the sampler keeps no memory of what was previously shared, so
// across epochs the same point may be re-sent.
func (s *Store) Sample(n int, rng *rand.Rand) []Rating {
	var perm []int
	return s.SampleAppend(nil, n, rng, &perm)
}

// SampleAppend is Sample with caller-owned buffers: the drawn points are
// appended to dst and *perm is reused as an n-entry scratch. The picks and
// the rng draw sequence are exactly those of rand.Perm(Len)[:n], so pooled
// and unpooled sampling produce bit-identical trajectories; a node
// sampling every epoch stops allocating once its buffers hold n entries,
// however large the store grows.
func (s *Store) SampleAppend(dst []Rating, n int, rng *rand.Rand, perm *[]int) []Rating {
	if n >= len(s.ratings) {
		return append(dst, s.ratings...)
	}
	// rand.Perm's inside-out shuffle, keeping only the first n cells. Step
	// i sets p[i] = p[j], p[j] = i for j = Intn(i+1): cells at or beyond n
	// are only ever copied into other cells at or beyond n, so the window
	// p[:n] never reads them and they need no storage. Every step still
	// draws — including the wasted Intn(1) at i=0 that Perm keeps for Go 1
	// stream compatibility — so the rng advances identically. Every window
	// cell is written before it is read, so the scratch needs no clearing.
	p := *perm
	if cap(p) < n {
		p = make([]int, n)
	} else {
		p = p[:n]
	}
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	for i := n; i < len(s.ratings); i++ {
		if j := rng.Intn(i + 1); j < n {
			p[j] = i
		}
	}
	*perm = p
	dst = slices.Grow(dst, n)
	for _, j := range p {
		dst = append(dst, s.ratings[j])
	}
	return dst
}

// Bytes returns the encoded size of the whole store, used for the enclave
// memory accounting in the SGX experiments (Fig 6/7 (b)).
func (s *Store) Bytes() int { return len(s.ratings) * EncodedSize }

// Snapshot returns the current contents, safe to retain and read from
// any goroutine. It copies nothing: the result shares the store's memory,
// capped at its length, and is read-only. No later Append changes what it
// reads: new points land past its capacity, and a new value for a point
// it holds is written into a fresh copy of the store.
func (s *Store) Snapshot() []Rating {
	n := len(s.ratings)
	s.published = n
	return s.ratings[:n:n]
}
