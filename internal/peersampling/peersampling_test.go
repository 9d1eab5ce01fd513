package peersampling

import (
	"math/rand"
	"testing"

	"rex/internal/topology"
)

func service(t *testing.T, n int, seed int64) *Service {
	t.Helper()
	return New(n, DefaultConfig(), rand.New(rand.NewSource(seed)))
}

func TestViewBounds(t *testing.T) {
	s := service(t, 60, 1)
	for r := 0; r < 30; r++ {
		s.Step()
	}
	for i := 0; i < len(s.views); i++ {
		v := s.views[i]
		if len(v) == 0 || len(v) > DefaultConfig().ViewSize {
			t.Fatalf("node %d view size %d", i, len(v))
		}
		for _, d := range v {
			if d.ID == i {
				t.Fatalf("node %d holds itself in its view", i)
			}
			if d.ID < 0 || d.ID >= len(s.views) {
				t.Fatalf("bad id %d", d.ID)
			}
		}
	}
}

func TestNoDuplicateDescriptors(t *testing.T) {
	s := service(t, 40, 2)
	for r := 0; r < 20; r++ {
		s.Step()
	}
	for i := 0; i < len(s.views); i++ {
		seen := map[int]bool{}
		for _, d := range s.views[i] {
			if seen[d.ID] {
				t.Fatalf("node %d has duplicate descriptor %d", i, d.ID)
			}
			seen[d.ID] = true
		}
	}
}

func TestOverlayStaysConnected(t *testing.T) {
	s := service(t, 80, 3)
	for r := 0; r < 40; r++ {
		s.Step()
		if r%10 == 9 {
			if len(topology.Components(s.Snapshot())) != 1 {
				t.Fatalf("overlay disconnected at round %d", r)
			}
		}
	}
	if d := diameter(s.Snapshot()); d <= 0 || d > 6 {
		t.Fatalf("overlay diameter %d, expected small", d)
	}
}

// diameter returns the longest shortest path of a connected graph.
func diameter(g *topology.Graph) int {
	d := 0
	for src := 0; src < g.N(); src++ {
		dist := map[int]int{src: 0}
		for q := []int{src}; len(q) > 0; q = q[1:] {
			for _, w := range g.Neighbors(q[0]) {
				if _, seen := dist[w]; !seen {
					dist[w] = dist[q[0]] + 1
					d = max(d, dist[w])
					q = append(q, w)
				}
			}
		}
	}
	return d
}

func TestViewsRandomizeAwayFromRing(t *testing.T) {
	s := service(t, 100, 4)
	for r := 0; r < 40; r++ {
		s.Step()
	}
	// After mixing, node 0's view should not be just its ring successors.
	ringOnly := true
	for _, d := range s.views[0] {
		if d.ID > DefaultConfig().ViewSize && d.ID < 100-1 {
			ringOnly = false
			break
		}
	}
	if ringOnly {
		t.Fatal("views never mixed beyond the bootstrap ring")
	}
}

func TestSnapshotUsableBySimulator(t *testing.T) {
	s := service(t, 30, 7)
	for r := 0; r < 15; r++ {
		s.Step()
	}
	g := s.Snapshot()
	if g.N() != 30 {
		t.Fatalf("graph size %d", g.N())
	}
	if g.AvgDegree() < float64(DefaultConfig().ViewSize)/2 {
		t.Fatalf("degree %.1f too low for view size %d", g.AvgDegree(), DefaultConfig().ViewSize)
	}
}

func TestDeterministicUnderSeed(t *testing.T) {
	a := service(t, 25, 8)
	b := service(t, 25, 8)
	for r := 0; r < 10; r++ {
		a.Step()
		b.Step()
	}
	for i := 0; i < 25; i++ {
		va, vb := a.views[i], b.views[i]
		if len(va) != len(vb) {
			t.Fatalf("node %d view sizes differ", i)
		}
		for k := range va {
			if va[k] != vb[k] {
				t.Fatalf("node %d descriptor %d differs", i, k)
			}
		}
	}
}
