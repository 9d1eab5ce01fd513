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
	}
}

func TestStreamInvariants(t *testing.T) {
	for _, tc := range streamCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := uint64(1); seed <= 10; seed++ {
				s := tc.mk(seed)
				g := Materialize(s)
				if len(Components(g)) != 1 {
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

// TestRandomNeighborOfMatchesGraph pins the helper's rng contract: one
// Intn over the node's sorted neighbor list, none for an isolated node, so
// swapping a materialized graph for any Source keeps RMW trajectories
// bit-identical.
func TestRandomNeighborOfMatchesGraph(t *testing.T) {
	g := SmallWorld(64, 6, 0.03, rand.New(rand.NewSource(5)))
	r1 := rand.New(rand.NewSource(9))
	r2 := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		i := trial % g.N()
		nb := g.Neighbors(i)
		if got, want := RandomNeighborOf(g, i, r1), nb[r2.Intn(len(nb))]; got != want {
			t.Fatalf("trial %d: RandomNeighborOf %d, one Intn draw picks %d", trial, got, want)
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
// identity.
func TestMaterializeRoundTrip(t *testing.T) {
	g := ErdosRenyi(40, 0.1, rand.New(rand.NewSource(3)))
	m := Materialize(g)
	if m.NumEdges() != g.NumEdges() {
		t.Fatalf("edges %d != %d", m.NumEdges(), g.NumEdges())
	}
}
