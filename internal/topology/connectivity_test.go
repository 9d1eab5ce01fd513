package topology

import (
	"math/rand"
	"testing"
)

// Partitions in the chaos harness (internal/faultnet) make graph
// connectivity load-bearing: a generator that silently emits a
// disconnected overlay turns a scheduled split-brain into a permanent
// one. These tables pin the generators at the ROADMAP-noted edge cases —
// tiny n, degree at or past n, extreme probabilities.

func TestSmallWorldConnectedTable(t *testing.T) {
	cases := []struct {
		name    string
		n, k    int
		pFar    float64
		seeds   int
		wantMin int // minimum acceptable degree over all nodes
	}{
		{"n2-k6", 2, 6, 0.03, 20, 1},
		{"n3-k2", 3, 2, 0.03, 20, 1},
		{"n4-k6-degree-exceeds-n", 4, 6, 0.03, 20, 1},
		{"n5-k4", 5, 4, 0.0, 20, 2},
		{"n7-k6-always-far", 7, 6, 1.0, 20, 2},
		{"n8-k1-odd-degree", 8, 1, 0.0, 20, 1},
		{"n64-k6-paper", 64, 6, 0.03, 10, 3},
		{"n64-k6-heavy-far", 64, 6, 0.9, 10, 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(tc.seeds); seed++ {
				g := SmallWorld(tc.n, tc.k, tc.pFar, rand.New(rand.NewSource(seed)))
				if g.N() != tc.n {
					t.Fatalf("seed %d: %d nodes, want %d", seed, g.N(), tc.n)
				}
				if len(Components(g)) != 1 {
					t.Fatalf("seed %d: disconnected: %v", seed, Components(g))
				}
				for i := 0; i < tc.n; i++ {
					if d := g.Degree(i); d < tc.wantMin {
						t.Fatalf("seed %d: node %d degree %d < %d", seed, i, d, tc.wantMin)
					}
					if g.HasEdge(i, i) {
						t.Fatalf("seed %d: self-loop at %d", seed, i)
					}
				}
			}
		})
	}
}

func TestErdosRenyiConnectedTable(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		p     float64
		seeds int
	}{
		{"n2-p0", 2, 0.0, 20},      // repair must add the only possible edge
		{"n3-p0", 3, 0.0, 20},      // pure repair graph
		{"n5-sparse", 5, 0.01, 20}, // almost surely disconnected pre-repair
		{"n10-p5-paper", 10, 0.05, 20},
		{"n10-dense", 10, 1.0, 10}, // complete graph, repair is a no-op
		{"n50-sparse", 50, 0.01, 10},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= int64(tc.seeds); seed++ {
				g := ErdosRenyi(tc.n, tc.p, rand.New(rand.NewSource(seed)))
				if len(Components(g)) != 1 {
					t.Fatalf("seed %d: disconnected: %v", seed, Components(g))
				}
				if tc.p >= 1 && g.NumEdges() != tc.n*(tc.n-1)/2 {
					t.Fatalf("seed %d: p=1 gave %d edges", seed, g.NumEdges())
				}
			}
		})
	}
}

// TestSingleNodeGraphs: n=1 is a degenerate but legal deployment (one
// node, no gossip); generators must not panic or invent self-loops.
func TestSingleNodeGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for name, g := range map[string]*Graph{
		"smallworld": SmallWorld(1, 6, 0.5, rng),
		"erdosrenyi": ErdosRenyi(1, 0.5, rng),
		"full":       FullyConnected(1),
	} {
		if g.N() != 1 || g.NumEdges() != 0 {
			t.Fatalf("%s: n=%d m=%d for a single node", name, g.N(), g.NumEdges())
		}
		if len(Components(g)) != 1 {
			t.Fatalf("%s: single node reported disconnected", name)
		}
	}
}

// TestEnsureConnectedRepairsAdversarialSplits: EnsureConnected must unify
// any number of components, including many singletons.
func TestEnsureConnectedRepairsAdversarialSplits(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{2, 3, 5, 17, 40} {
		g := NewGraph(n) // n isolated nodes: worst case
		EnsureConnected(g, rng)
		if len(Components(g)) != 1 {
			t.Fatalf("n=%d: still disconnected", n)
		}
		if g.NumEdges() < n-1 {
			t.Fatalf("n=%d: %d edges cannot span the graph", n, g.NumEdges())
		}
	}
}
