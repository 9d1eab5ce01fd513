package topology

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAddRemoveEdge(t *testing.T) {
	g := NewGraph(5)
	if !g.AddEdge(1, 3) {
		t.Fatal("add failed")
	}
	if g.AddEdge(1, 3) || g.AddEdge(3, 1) {
		t.Fatal("duplicate edge accepted")
	}
	if g.AddEdge(2, 2) {
		t.Fatal("self-loop accepted")
	}
	if g.AddEdge(-1, 0) || g.AddEdge(0, 5) {
		t.Fatal("out-of-range edge accepted")
	}
	if !g.HasEdge(3, 1) {
		t.Fatal("edge not symmetric")
	}
	if !g.RemoveEdge(1, 3) {
		t.Fatal("remove failed")
	}
	if g.HasEdge(1, 3) || g.RemoveEdge(1, 3) {
		t.Fatal("edge survived removal")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := NewGraph(10)
	for _, j := range []int{7, 2, 9, 4} {
		g.AddEdge(5, j)
	}
	nb := g.Neighbors(5)
	for i := 1; i < len(nb); i++ {
		if nb[i-1] >= nb[i] {
			t.Fatalf("unsorted neighbors: %v", nb)
		}
	}
}

func TestEdgesAndDegree(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Fatal("degree wrong")
	}
	if got := g.AvgDegree(); got != 1.5 {
		t.Fatalf("avg degree %v", got)
	}
	es := g.Edges()
	if len(es) != 3 || es[0] != [2]int{0, 1} {
		t.Fatalf("edges list %v", es)
	}
}

func TestSmallWorldShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := SmallWorld(100, 6, 0.03, rng)
	if g.N() != 100 {
		t.Fatalf("small world has %d nodes, want 100", g.N())
	}
	if !IsConnected(g) {
		t.Fatal("small world disconnected")
	}
	// Ring lattice with k=6 gives base degree 6; shortcuts add a few.
	if avg := g.AvgDegree(); avg < 5.5 || avg > 8 {
		t.Fatalf("avg degree %.2f outside small-world range", avg)
	}
	// High clustering is the defining small-world property (§IV-A2a).
	if cc := ClusteringCoefficient(g); cc < 0.4 {
		t.Fatalf("clustering %.2f too low for a small world", cc)
	}
}

func TestErdosRenyiConnectedByConstruction(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(60, 0.02, rng) // sparse enough to fragment without repair
		if g.N() != 60 {
			t.Fatalf("seed %d: ER graph has %d nodes, want 60", seed, g.N())
		}
		if !IsConnected(g) {
			t.Fatalf("seed %d: ER graph disconnected after repair", seed)
		}
	}
}

func TestErdosRenyiDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := ErdosRenyi(200, 0.05, rng)
	want := 0.05 * 199
	if avg := g.AvgDegree(); math.Abs(avg-want) > want/3 {
		t.Fatalf("avg degree %.1f, expected ~%.1f", avg, want)
	}
}

func TestSmallWorldVsERClustering(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sw := SmallWorld(150, 6, 0.03, rng)
	er := ErdosRenyi(150, float64(6)/149, rand.New(rand.NewSource(5)))
	if ClusteringCoefficient(sw) <= ClusteringCoefficient(er) {
		t.Fatalf("small world should cluster more: SW %.3f ER %.3f",
			ClusteringCoefficient(sw), ClusteringCoefficient(er))
	}
}

func TestFullyConnected(t *testing.T) {
	g := FullyConnected(8)
	if g.NumEdges() != 28 {
		t.Fatalf("8-node complete graph has %d edges, want 28 (paper §IV-C)", g.NumEdges())
	}
	if Diameter(g) != 1 {
		t.Fatalf("diameter %d", Diameter(g))
	}
	if cc := ClusteringCoefficient(g); cc != 1 {
		t.Fatalf("clustering %v", cc)
	}
}

func BenchmarkGraphSmallWorld(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		g := SmallWorld(610, 6, 0.03, rng)
		if !IsConnected(g) {
			b.Fatal("disconnected small world")
		}
	}
}

func TestComponentsAndRepair(t *testing.T) {
	g := NewGraph(6)
	g.AddEdge(0, 1)
	g.AddEdge(2, 3)
	g.AddEdge(4, 5)
	comps := Components(g)
	if len(comps) != 3 {
		t.Fatalf("components = %d", len(comps))
	}
	EnsureConnected(g, rand.New(rand.NewSource(6)))
	if !IsConnected(g) {
		t.Fatal("repair failed")
	}
}

func TestDiameter(t *testing.T) {
	g := NewGraph(4) // path 0-1-2-3
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	if d := Diameter(g); d != 3 {
		t.Fatalf("path diameter %d", d)
	}
	g2 := NewGraph(3)
	g2.AddEdge(0, 1)
	if d := Diameter(g2); d != -1 {
		t.Fatalf("disconnected diameter %d", d)
	}
}

func TestRandomNeighbor(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	rng := rand.New(rand.NewSource(7))
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		j := g.RandomNeighbor(0, rng)
		if j != 1 && j != 2 {
			t.Fatalf("bad neighbor %d", j)
		}
		seen[j] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatal("random neighbor never picked one side")
	}
	if g.RandomNeighbor(4, rng) != -1 {
		t.Fatal("isolated node should yield -1")
	}
}

// TestMetropolisHastingsStochastic verifies the §III-C2 weight matrix is
// row-stochastic with nonnegative entries and symmetric (w_ij == w_ji) on
// random graphs — the property making D-PSGD average correctly.
func TestMetropolisHastingsStochastic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := ErdosRenyi(30, 0.15, rng)
		for i := 0; i < g.N(); i++ {
			ws, self := MetropolisHastings(g, i)
			sum := self
			if self < -1e-9 {
				return false
			}
			for _, w := range ws {
				if w < 0 {
					return false
				}
				sum += w
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
			// Symmetry: w_ij computed from j's side must match.
			for k, j := range g.Neighbors(i) {
				wsj, _ := MetropolisHastings(g, j)
				found := false
				for k2, i2 := range g.Neighbors(j) {
					if i2 == i {
						if math.Abs(wsj[k2]-ws[k]) > 1e-12 {
							return false
						}
						found = true
					}
				}
				if !found {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1)
	c := g.Clone()
	c.AddEdge(2, 3)
	if g.HasEdge(2, 3) {
		t.Fatal("clone shares storage")
	}
	if !c.HasEdge(0, 1) {
		t.Fatal("clone lost edges")
	}
}

func TestGraphString(t *testing.T) {
	g := FullyConnected(3)
	if s := g.String(); s == "" {
		t.Fatal("empty string")
	}
}

func TestSmallWorldShortcutAlwaysAddedWhenEligible(t *testing.T) {
	// n=8, k=6 gives a ring lattice where each node's only non-neighbor is
	// its antipode. Rejection sampling alone misses it with probability
	// (7/8)^16 per node, which used to drop the far-fetched edge silently;
	// the deterministic fallback must add it whenever one exists. With
	// pFar=1 every node requests a shortcut, so across many seeds the
	// result must always be the complete graph K8 (28 edges).
	for seed := int64(0); seed < 50; seed++ {
		g := SmallWorld(8, 6, 1.0, rand.New(rand.NewSource(seed)))
		if got, want := g.NumEdges(), 8*7/2; got != want {
			t.Fatalf("seed %d: got %d edges, want complete graph with %d", seed, got, want)
		}
	}
}

func TestSmallWorldDeterministic(t *testing.T) {
	a := SmallWorld(64, 6, 0.5, rand.New(rand.NewSource(7)))
	b := SmallWorld(64, 6, 0.5, rand.New(rand.NewSource(7)))
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		t.Fatalf("edge counts differ: %d vs %d", len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ae[i], be[i])
		}
	}
}
