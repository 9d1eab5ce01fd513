package peersampling

import (
	"math/rand"
	"testing"

	"rex/internal/topology"
)

// These tables pin the edge cases the main tests don't reach: tiny n and
// view sizes at or past n.

func TestOverlayConnectedTable(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		cfg    Config
		rounds int
	}{
		{"n2-minimal", 2, Config{ViewSize: 1, SwapSize: 1}, 10},
		{"n3-view-exceeds-n", 3, Config{ViewSize: 8, SwapSize: 4}, 10},
		{"n4-view-equals-n", 4, Config{ViewSize: 4, SwapSize: 2}, 10},
		{"n5-swap-equals-view", 5, Config{ViewSize: 4, SwapSize: 4}, 10},
		{"n16-default", 16, DefaultConfig(), 20},
		{"n64-small-view", 64, Config{ViewSize: 6, SwapSize: 3}, 30},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				s := New(tc.n, tc.cfg, rand.New(rand.NewSource(seed)))
				for r := 0; r < tc.rounds; r++ {
					s.Step()
					if comps := topology.Components(s.Snapshot()); len(comps) != 1 {
						t.Fatalf("seed %d round %d: overlay disconnected: %v", seed, r, comps)
					}
				}
				// Views never exceed capacity or contain self/dupes.
				for i := 0; i < tc.n; i++ {
					view := s.views[i]
					if len(view) > tc.cfg.ViewSize {
						t.Fatalf("seed %d: node %d view %d > cap %d", seed, i, len(view), tc.cfg.ViewSize)
					}
					seen := map[int]bool{}
					for _, d := range view {
						if d.ID == i {
							t.Fatalf("seed %d: node %d holds itself", seed, i)
						}
						if seen[d.ID] {
							t.Fatalf("seed %d: node %d holds %d twice", seed, i, d.ID)
						}
						seen[d.ID] = true
					}
				}
			}
		})
	}
}
