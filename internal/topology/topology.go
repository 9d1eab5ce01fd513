// Package topology builds the communication graphs used by REX:
// small-world graphs (paper §IV-A2a: 6 close connections, 3% far-fetched
// probability) and connected Erdős–Rényi random graphs (§IV-A2b: p = 5%),
// materialized or streamed, and the Metropolis–Hastings edge weight for
// D-PSGD model averaging (§III-C2).
package topology

import (
	"fmt"
	"math/rand"
	"sort"
)

// Source is the minimal read-only neighbor view the gossip and simulation
// layers need. *Graph implements it with materialized adjacency; the
// streamed SmallWorldStream implements it by deriving neighbor lists on
// demand from (seed, node id), so topology memory is O(degree) per node
// actually touched instead of O(n·degree) up front. Neighbors results must be sorted ascending, stable for the
// lifetime of the value, and treated as read-only by callers.
type Source interface {
	N() int
	Degree(i int) int
	Neighbors(i int) []int
}

// RandomNeighborOf picks a uniform random neighbor of node i from any
// Source, consuming exactly one rng draw when the node has neighbors and
// none otherwise, so materialized and streamed topologies yield
// bit-identical RMW schedules.
func RandomNeighborOf(s Source, i int, rng *rand.Rand) int {
	nb := s.Neighbors(i)
	if len(nb) == 0 {
		return -1
	}
	return nb[rng.Intn(len(nb))]
}

// Graph is a simple undirected graph over nodes 0..N-1 with sorted
// adjacency lists and no self-loops or parallel edges.
type Graph struct {
	n   int
	adj [][]int
}

var _ Source = (*Graph)(nil)

// NewGraph returns an empty graph on n nodes.
func NewGraph(n int) *Graph {
	if n < 0 {
		panic("topology: negative node count")
	}
	return &Graph{n: n, adj: make([][]int, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// Degree returns the number of neighbors of node i. D-PSGD senders attach
// this value to every message for Metropolis–Hastings weighting (§III-C2).
func (g *Graph) Degree(i int) int { return len(g.adj[i]) }

// Neighbors returns the sorted neighbor list of node i. Callers must not
// modify the returned slice.
func (g *Graph) Neighbors(i int) []int { return g.adj[i] }

// HasEdge reports whether the undirected edge (i, j) exists.
func (g *Graph) HasEdge(i, j int) bool {
	lst := g.adj[i]
	k := sort.SearchInts(lst, j)
	return k < len(lst) && lst[k] == j
}

// AddEdge inserts the undirected edge (i, j); self-loops and duplicates are
// ignored. It reports whether a new edge was added.
func (g *Graph) AddEdge(i, j int) bool {
	if i == j || i < 0 || j < 0 || i >= g.n || j >= g.n {
		return false
	}
	if g.HasEdge(i, j) {
		return false
	}
	g.insert(i, j)
	g.insert(j, i)
	return true
}

func (g *Graph) insert(i, j int) {
	lst := g.adj[i]
	k := sort.SearchInts(lst, j)
	lst = append(lst, 0)
	copy(lst[k+1:], lst[k:])
	lst[k] = j
	g.adj[i] = lst
}

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int {
	sum := 0
	for i := 0; i < g.n; i++ {
		sum += len(g.adj[i])
	}
	return sum / 2
}

// AvgDegree returns the mean node degree.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.NumEdges()) / float64(g.n)
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d avgdeg=%.1f}", g.n, g.NumEdges(), g.AvgDegree())
}

// SmallWorld builds a Watts–Strogatz-style small-world graph as the boost
// generator the paper used (§IV-A2a): a ring lattice where each node links
// to its k nearest neighbors (k/2 on each side), plus "far-fetched"
// shortcut edges added independently with probability pFar per node. The
// paper's parameters are k=6 close connections and pFar=3%.
func SmallWorld(n, k int, pFar float64, rng *rand.Rand) *Graph {
	if k >= n {
		k = n - 1
	}
	g := NewGraph(n)
	half := k / 2
	if half < 1 && n > 1 {
		half = 1
	}
	for i := 0; i < n; i++ {
		for d := 1; d <= half; d++ {
			g.AddEdge(i, (i+d)%n)
		}
	}
	// Far-fetched connections: each node gains a shortcut to a uniformly
	// random distant node with probability pFar. Rejection sampling is
	// tried first; on dense graphs (few eligible targets) it falls back to
	// a scan from a random offset so the shortcut is added whenever any
	// eligible target exists, instead of being silently dropped.
	for i := 0; i < n; i++ {
		if rng.Float64() < pFar {
			added := false
			for tries := 0; tries < 16; tries++ {
				j := rng.Intn(n)
				if j != i && !g.HasEdge(i, j) {
					g.AddEdge(i, j)
					added = true
					break
				}
			}
			if !added {
				start := rng.Intn(n)
				for d := 0; d < n; d++ {
					j := (start + d) % n
					if j != i && !g.HasEdge(i, j) {
						g.AddEdge(i, j)
						break
					}
				}
			}
		}
	}
	return g
}

// ErdosRenyi builds a G(n, p) random graph and then repairs connectivity by
// linking components, exactly as the paper does ("we ensure to make it
// connected by adding the missing edges", §IV-A2b). p = 5% in the paper.
func ErdosRenyi(n int, p float64, rng *rand.Rand) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.AddEdge(i, j)
			}
		}
	}
	EnsureConnected(g, rng)
	return g
}

// FullyConnected builds the complete graph on n nodes: the paper's 8-node
// SGX deployment is fully connected with 28 pairwise links (§IV-C).
func FullyConnected(n int) *Graph {
	g := NewGraph(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(i, j)
		}
	}
	return g
}

// EnsureConnected adds edges between connected components (a random node
// of each subsequent component to a random node of the first) until the
// graph is a single component.
func EnsureConnected(g *Graph, rng *rand.Rand) {
	comps := Components(g)
	if len(comps) <= 1 {
		return
	}
	base := comps[0]
	for _, c := range comps[1:] {
		a := base[rng.Intn(len(base))]
		b := c[rng.Intn(len(c))]
		g.AddEdge(a, b)
		base = append(base, c...)
	}
}

// Components returns the connected components, each as a sorted node list,
// ordered by smallest member.
func Components(g *Graph) [][]int {
	seen := make([]bool, g.n)
	var comps [][]int
	for s := 0; s < g.n; s++ {
		if seen[s] {
			continue
		}
		var comp []int
		queue := []int{s}
		seen[s] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			comp = append(comp, v)
			for _, w := range g.adj[v] {
				if !seen[w] {
					seen[w] = true
					queue = append(queue, w)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// MHWeight is the Metropolis–Hastings weight 1/(1+max(di, dj)) of the edge
// between nodes of degrees di and dj: symmetric in its arguments, and at
// most 1/(1+di) per edge, so a node's self weight 1 − Σ stays non-negative.
// D-PSGD merging (internal/core) uses it.
func MHWeight(di, dj int) float64 {
	return 1.0 / float64(1+max(di, dj))
}
