package gossip

import (
	"math/rand"
	"testing"

	"rex/internal/topology"
)

func TestParseAlgo(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Algo
	}{{"rmw", RMW}, {"RMW", RMW}, {"dpsgd", DPSGD}, {"d-psgd", DPSGD}, {"D-PSGD", DPSGD}} {
		got, err := ParseAlgo(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseAlgo(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseAlgo("nope"); err == nil {
		t.Fatal("bad algo accepted")
	}
	if RMW.String() != "RMW" || DPSGD.String() != "D-PSGD" {
		t.Fatal("algo names drifted")
	}
}

func TestTargetsRMWSingleRandom(t *testing.T) {
	g := topology.FullyConnected(10)
	rng := rand.New(rand.NewSource(1))
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		ts := TargetsAppend(nil, RMW, g, 0, rng)
		if len(ts) != 1 {
			t.Fatalf("RMW targets %v", ts)
		}
		if ts[0] == 0 {
			t.Fatal("RMW targeted self")
		}
		seen[ts[0]] = true
	}
	if len(seen) < 5 {
		t.Fatalf("RMW not spreading: only %d distinct targets", len(seen))
	}
}

func TestTargetsDPSGDAllNeighbors(t *testing.T) {
	g := topology.NewGraph(5)
	g.AddEdge(0, 2)
	g.AddEdge(0, 4)
	ts := TargetsAppend(nil, DPSGD, g, 0, rand.New(rand.NewSource(2)))
	if len(ts) != 2 || ts[0] != 2 || ts[1] != 4 {
		t.Fatalf("DPSGD targets %v", ts)
	}
}

func TestTargetsIsolatedNode(t *testing.T) {
	g := topology.NewGraph(3)
	if ts := TargetsAppend(nil, RMW, g, 0, rand.New(rand.NewSource(3))); ts != nil {
		t.Fatalf("isolated RMW targets %v", ts)
	}
	if ts := TargetsAppend(nil, DPSGD, g, 0, rand.New(rand.NewSource(3))); len(ts) != 0 {
		t.Fatalf("isolated DPSGD targets %v", ts)
	}
}
