package topology

import (
	"math/rand"
	"sync"
	"testing"
)

// The streamed generators must satisfy the same structural invariants the
// materialized ones do — symmetry, sortedness, no self-loops, and
// connectivity (the ring backbone) — for any seed, because the simulator's
// barrier and the chaos harness both assume them.

func streamCases() []struct {
	name string
	mk   func(seed uint64) Source
} {
	return []struct {
		name string
		mk   func(seed uint64) Source
	}{
		{"smallworld-n2", func(s uint64) Source { return NewSmallWorldStream(2, 6, 0.03, s) }},
		{"smallworld-n3-k2", func(s uint64) Source { return NewSmallWorldStream(3, 2, 0.03, s) }},
		{"smallworld-n64-paper", func(s uint64) Source { return NewSmallWorldStream(64, 6, 0.03, s) }},
		{"smallworld-n64-heavy-far", func(s uint64) Source { return NewSmallWorldStream(64, 6, 0.9, s) }},
		{"smallworld-n257", func(s uint64) Source { return NewSmallWorldStream(257, 6, 0.03, s) }},
		{"er-n2", func(s uint64) Source { return NewERStream(2, 0.05, s) }},
		{"er-n64-paper", func(s uint64) Source { return NewERStream(64, 0.05, s) }},
		{"er-n257-sparse", func(s uint64) Source { return NewERStream(257, 0.01, s) }},
	}
}

func TestStreamInvariants(t *testing.T) {
	for _, tc := range streamCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 10; seed++ {
				s := tc.mk(seed)
				g := Materialize(s)
				if !IsConnected(g) {
					t.Fatalf("seed %d: disconnected: %v", seed, Components(g))
				}
				for i := 0; i < s.N(); i++ {
					nb := s.Neighbors(i)
					if s.Degree(i) != len(nb) {
						t.Fatalf("seed %d node %d: Degree %d != len(Neighbors) %d", seed, i, s.Degree(i), len(nb))
					}
					for k, j := range nb {
						if j == i {
							t.Fatalf("seed %d: self-loop at %d", seed, i)
						}
						if k > 0 && nb[k-1] >= j {
							t.Fatalf("seed %d node %d: neighbors not strictly ascending: %v", seed, i, nb)
						}
						// Symmetry: the involution/pair-hash constructions
						// must give both endpoints the same view.
						found := false
						for _, back := range s.Neighbors(j) {
							if back == i {
								found = true
								break
							}
						}
						if !found {
							t.Fatalf("seed %d: edge %d->%d not symmetric", seed, i, j)
						}
					}
				}
			}
		})
	}
}

// TestStreamDeterministic pins that two instances with the same parameters
// agree node-by-node — the property that lets every simulator worker (or
// every machine of a sharded deployment) derive the topology locally.
func TestStreamDeterministic(t *testing.T) {
	for _, tc := range streamCases() {
		a, b := tc.mk(42), tc.mk(42)
		c := tc.mk(43)
		diff := false
		for i := 0; i < a.N(); i++ {
			na, nb := a.Neighbors(i), b.Neighbors(i)
			if len(na) != len(nb) {
				t.Fatalf("%s node %d: same seed, different degree", tc.name, i)
			}
			for k := range na {
				if na[k] != nb[k] {
					t.Fatalf("%s node %d: same seed, different neighbors", tc.name, i)
				}
			}
			nc := c.Neighbors(i)
			if len(na) != len(nc) {
				diff = true
				continue
			}
			for k := range na {
				if na[k] != nc[k] {
					diff = true
				}
			}
		}
		if !diff && a.N() > 8 {
			t.Errorf("%s: seeds 42 and 43 generated identical topologies", tc.name)
		}
	}
}

// TestStreamConcurrentAccess hammers the lazy per-node cache from many
// goroutines; under -race this verifies the atomic-pointer memoization.
// Every goroutine must observe the exact same slice contents.
func TestStreamConcurrentAccess(t *testing.T) {
	s := NewSmallWorldStream(512, 6, 0.1, 7)
	want := Materialize(NewSmallWorldStream(512, 6, 0.1, 7))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < s.N(); i++ {
				nb := s.Neighbors(i)
				ref := want.Neighbors(i)
				if len(nb) != len(ref) {
					t.Errorf("node %d: got %d neighbors, want %d", i, len(nb), len(ref))
					return
				}
				for k := range nb {
					if nb[k] != ref[k] {
						t.Errorf("node %d: neighbor mismatch", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSmallWorldStreamShortcutMass checks the far-fetched edge budget: the
// mean degree over a large ring should approach ringDegree + 2·pFar,
// matching the materialized generator's expectation.
func TestSmallWorldStreamShortcutMass(t *testing.T) {
	const n, k = 4096, 6
	const pFar = 0.3
	var total int
	s := NewSmallWorldStream(n, k, pFar, 99)
	for i := 0; i < n; i++ {
		total += s.Degree(i)
	}
	mean := float64(total) / n
	want := float64(k) + 2*pFar
	if mean < want-0.3 || mean > want+0.3 {
		t.Fatalf("mean degree %.3f, want about %.3f", mean, want)
	}
}

// TestERStreamDegreeMass checks the bucketed edge budget: the mean degree
// over a large graph must approach ring (2) + p·(n−1), matching the
// materialized G(n, p) expectation, so swapping the O(n)-scan derivation
// for hashed buckets did not change the edge mass.
func TestERStreamDegreeMass(t *testing.T) {
	const n = 4096
	const p = 0.002 // expected non-ring degree ~8.2
	var total int
	s := NewERStream(n, p, 123)
	if s.bucket == 0 {
		t.Fatalf("n=%d p=%v should take the bucketed sparse path", n, p)
	}
	for i := 0; i < n; i++ {
		total += s.Degree(i)
	}
	mean := float64(total) / n
	want := 2 + p*(n-1)
	if mean < want*0.9 || mean > want*1.1 {
		t.Fatalf("mean degree %.3f, want about %.3f", mean, want)
	}
}

// TestERStreamLargeSparse touches a few hundred nodes of a million-node
// sparse graph — the scale path's access pattern. Each derivation must be
// bucket-local (no O(n) scan; this test would take minutes otherwise) and
// still symmetric and deterministic.
func TestERStreamLargeSparse(t *testing.T) {
	const n = 1 << 20
	s := NewERStream(n, 5.0/(n-1), 77) // expected degree ~2 ring + 5 random
	s2 := NewERStream(n, 5.0/(n-1), 77)
	if s.bucket == 0 {
		t.Fatal("large sparse graph should take the bucketed path")
	}
	for step := 0; step < 400; step++ {
		i := int(uint32(step) * 2654435761 % uint32(n)) // uint32: the product overflows a 32-bit int
		nb := s.Neighbors(i)
		nb2 := s2.Neighbors(i)
		if len(nb) != len(nb2) {
			t.Fatalf("node %d: same seed, different degree", i)
		}
		for k, j := range nb {
			if nb2[k] != j {
				t.Fatalf("node %d: same seed, different neighbors", i)
			}
			found := false
			for _, back := range s.Neighbors(j) {
				if back == i {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("edge %d->%d not symmetric", i, j)
			}
		}
	}
}

// TestRandomNeighborOfMatchesGraph pins that the generic helper consumes
// the rng exactly like Graph.RandomNeighbor, so swapping a materialized
// graph for any Source keeps RMW trajectories bit-identical.
func TestRandomNeighborOfMatchesGraph(t *testing.T) {
	g := SmallWorld(64, 6, 0.03, rand.New(rand.NewSource(5)))
	r1 := rand.New(rand.NewSource(9))
	r2 := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		i := trial % g.N()
		if got, want := RandomNeighborOf(g, i, r1), g.RandomNeighbor(i, r2); got != want {
			t.Fatalf("trial %d: RandomNeighborOf %d != RandomNeighbor %d", trial, got, want)
		}
	}
	empty := NewGraph(3)
	if got := RandomNeighborOf(empty, 0, r1); got != -1 {
		t.Fatalf("isolated node: got %d, want -1", got)
	}
	if r1.Int63() != r2.Int63() {
		t.Fatal("isolated-node path consumed rng draws")
	}
}

// TestMaterializeRoundTrip: materializing a materialized graph is the
// identity, and a streamed ER form contains its Hamiltonian ring.
func TestMaterializeRoundTrip(t *testing.T) {
	g := ErdosRenyi(40, 0.1, rand.New(rand.NewSource(3)))
	m := Materialize(g)
	if m.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d != %d", m.NumEdges(), g.NumEdges())
	}
	s := NewERStream(40, 0.0, 11)
	sm := Materialize(s)
	for i := 0; i < 40; i++ {
		if !sm.HasEdge(i, (i+1)%40) {
			t.Fatalf("ER stream missing ring edge %d-%d", i, (i+1)%40)
		}
	}
	if sm.NumEdges() != 40 {
		t.Fatalf("p=0 ER stream has %d edges, want the 40 ring edges", sm.NumEdges())
	}
}
