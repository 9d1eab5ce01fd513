package topology

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestAddEdge(t *testing.T) {
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
}

func TestSmallWorldShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := SmallWorld(100, 6, 0.03, rng)
	if g.N() != 100 {
		t.Fatalf("small world has %d nodes, want 100", g.N())
	}
	if len(Components(g)) != 1 {
		t.Fatal("small world disconnected")
	}
	// Ring lattice with k=6 gives base degree 6; shortcuts add a few.
	if avg := g.AvgDegree(); avg < 5.5 || avg > 8 {
		t.Fatalf("avg degree %.2f outside small-world range", avg)
	}
	// High clustering is the defining small-world property (§IV-A2a).
	if cc := clustering(g); cc < 0.4 {
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
		if len(Components(g)) != 1 {
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
	if clustering(sw) <= clustering(er) {
		t.Fatalf("small world should cluster more: SW %.3f ER %.3f", clustering(sw), clustering(er))
	}
}

// clustering returns the mean local clustering coefficient: for each node,
// the fraction of its neighbor pairs that are themselves connected.
func clustering(g *Graph) float64 {
	var sum float64
	for i := 0; i < g.N(); i++ {
		nb := g.Neighbors(i)
		links := 0
		for a := range nb {
			for _, c := range nb[a+1:] {
				if g.HasEdge(nb[a], c) {
					links++
				}
			}
		}
		if d := len(nb); d >= 2 {
			sum += 2 * float64(links) / float64(d*(d-1))
		}
	}
	return sum / float64(g.N())
}

func TestFullyConnected(t *testing.T) {
	g := FullyConnected(8)
	if g.NumEdges() != 28 {
		t.Fatalf("8-node complete graph has %d edges, want 28 (paper §IV-C)", g.NumEdges())
	}
	if cc := clustering(g); cc != 1 {
		t.Fatalf("clustering %v", cc)
	}
}

func BenchmarkGraphSmallWorld(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		g := SmallWorld(610, 6, 0.03, rng)
		if len(Components(g)) != 1 {
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
	if len(Components(g)) != 1 {
		t.Fatal("repair failed")
	}
}

func TestRandomNeighbor(t *testing.T) {
	g := NewGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	rng := rand.New(rand.NewSource(7))
	seen := map[int]bool{}
	for i := 0; i < 100; i++ {
		j := RandomNeighborOf(g, 0, rng)
		if j != 1 && j != 2 {
			t.Fatalf("bad neighbor %d", j)
		}
		seen[j] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatal("random neighbor never picked one side")
	}
	if RandomNeighborOf(g, 4, rng) != -1 {
		t.Fatal("isolated node should yield -1")
	}
}

// TestMetropolisHastingsStochastic verifies the §III-C2 weight matrix D-PSGD
// merging builds from MHWeight on random graphs: entries nonnegative,
// symmetric (w_ij == w_ji), and each row's neighbor weights summing to at
// most 1, so the self weight 1 − Σ_j w_ij is nonnegative and the matrix is
// doubly stochastic — the property making D-PSGD average correctly.
func TestMetropolisHastingsStochastic(t *testing.T) {
	f := func(seed int64) bool {
		g := ErdosRenyi(30, 0.15, rand.New(rand.NewSource(seed)))
		for i := 0; i < g.N(); i++ {
			sum := 0.0
			for _, j := range g.Neighbors(i) {
				w := MHWeight(g.Degree(i), g.Degree(j))
				if w < 0 || w != MHWeight(g.Degree(j), g.Degree(i)) {
					return false
				}
				sum += w
			}
			if 1-sum < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
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
	for i := 0; i < a.N(); i++ {
		if !slices.Equal(a.Neighbors(i), b.Neighbors(i)) {
			t.Fatalf("node %d neighbors differ: %v vs %v", i, a.Neighbors(i), b.Neighbors(i))
		}
	}
}
