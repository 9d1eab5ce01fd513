package topology

import (
	"sort"
	"sync/atomic"
)

// This file holds the streaming topology generator for the million-user
// scale path: instead of materializing an n-node adjacency structure up
// front (SmallWorld walks every node), it derives a node's neighbor list
// on demand as a pure function of (seed, node id). Memory is O(degree) per
// node actually touched — a simulation over 100k users with only a subset
// alive never pays for the rest — and generation parallelizes for free
// because every per-node list is computed independently and cached behind
// an atomic pointer.

// mixTopo is the splitmix64 finalizer, used to turn (seed, structured id)
// tuples into uniform 64-bit values for edge decisions.
func mixTopo(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashFloat maps a hash to [0, 1) with 53 bits of precision.
func hashFloat(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// neighborCache memoizes per-node neighbor lists. Computation is a pure
// function of (seed, i), so concurrent fills race benignly: every writer
// produces an identical list and CompareAndSwap keeps exactly one, which
// makes Neighbors stable (same backing array) for the cache's lifetime.
type neighborCache struct {
	slots []atomic.Pointer[[]int]
}

func newNeighborCache(n int) neighborCache {
	return neighborCache{slots: make([]atomic.Pointer[[]int], n)}
}

func (c *neighborCache) get(i int, compute func(int) []int) []int {
	if p := c.slots[i].Load(); p != nil {
		return *p
	}
	nb := compute(i)
	if !c.slots[i].CompareAndSwap(nil, &nb) {
		return *c.slots[i].Load()
	}
	return nb
}

// SmallWorldStream is the streamed counterpart of SmallWorld (§IV-A2a):
// a ring lattice (k/2 close connections per side) plus "far-fetched"
// shortcuts. Shortcuts come from shortcutRounds independent random
// matchings: round r pairs node i with (offset_r − i) mod n — an
// involution, so both endpoints derive the same candidate edge — and the
// edge is kept with probability 2·pFar/shortcutRounds decided by a hash of
// (seed, round, edge). Expected shortcut degree is therefore 2·pFar per
// node, matching the materialized generator, where a node initiates a
// shortcut with probability pFar and receives one on average equally
// often. The ring keeps the graph connected for any seed.
type SmallWorldStream struct {
	n     int
	half  int
	pEdge float64
	seed  uint64
	cache neighborCache
}

// shortcutRounds is the number of matching rounds SmallWorldStream draws
// shortcut candidates from. More rounds spread the same expected shortcut
// mass (2·pFar) over more independent pairings.
const shortcutRounds = 4

var _ Source = (*SmallWorldStream)(nil)

// NewSmallWorldStream builds the streamed small-world topology on n nodes
// with k close connections and far-fetched probability pFar, derived
// entirely from seed. No per-node state is allocated until a node's
// neighborhood is first requested.
func NewSmallWorldStream(n, k int, pFar float64, seed uint64) *SmallWorldStream {
	if n < 0 {
		panic("topology: negative node count")
	}
	if k >= n {
		k = n - 1
	}
	half := k / 2
	if half < 1 && n > 1 {
		half = 1
	}
	pEdge := 2 * pFar / shortcutRounds
	if pEdge > 1 {
		pEdge = 1
	}
	return &SmallWorldStream{n: n, half: half, pEdge: pEdge, seed: seed, cache: newNeighborCache(n)}
}

// N implements Source.
func (s *SmallWorldStream) N() int { return s.n }

// Degree implements Source.
func (s *SmallWorldStream) Degree(i int) int { return len(s.Neighbors(i)) }

// Neighbors implements Source: the sorted neighbor list of node i,
// computed on first request and cached. Callers must not modify it.
func (s *SmallWorldStream) Neighbors(i int) []int {
	return s.cache.get(i, s.compute)
}

func (s *SmallWorldStream) compute(i int) []int {
	if s.n <= 1 {
		return nil
	}
	nb := make([]int, 0, 2*s.half+2)
	for d := 1; d <= s.half; d++ {
		nb = append(nb, (i+d)%s.n, ((i-d)%s.n+s.n)%s.n)
	}
	for r := 0; r < shortcutRounds; r++ {
		off := int(mixTopo(s.seed^0xA076_1D64_78BD_642F^uint64(r)*0xE703_7ED1_A0B4_28DB) % uint64(s.n))
		j := ((off-i)%s.n + s.n) % s.n
		if j == i {
			continue
		}
		a, b := i, j
		if a > b {
			a, b = b, a
		}
		h := mixTopo(s.seed ^ uint64(r+1)*0x9E3779B97F4A7C15 ^ uint64(a)<<32 ^ uint64(b))
		if hashFloat(h) < s.pEdge {
			nb = append(nb, j)
		}
	}
	return sortDedup(nb)
}

// sortDedup sorts nb ascending and removes duplicates in place.
func sortDedup(nb []int) []int {
	sort.Ints(nb)
	out := nb[:0]
	for k, v := range nb {
		if k == 0 || v != nb[k-1] {
			out = append(out, v)
		}
	}
	return out
}

// Materialize builds a *Graph holding the full adjacency of any Source.
// Tests use it as the materialized reference a streamed topology must
// match (TestStreamedTopologyMatchesMaterialized).
func Materialize(s Source) *Graph {
	g := NewGraph(s.N())
	for i := 0; i < s.N(); i++ {
		for _, j := range s.Neighbors(i) {
			g.AddEdge(i, j)
		}
	}
	return g
}
