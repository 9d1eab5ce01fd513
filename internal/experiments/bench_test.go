package experiments

import (
	"io"
	"testing"
)

// BenchmarkExperiments regenerates every registered paper artifact and
// extension once per iteration (scaled-down workloads; `go run
// ./cmd/rexbench -exp <id> -full` runs paper scale). The first iteration
// executes the scenario; later ones may hit the memo cache, so b.N>1
// timings measure the harness, not the simulation — artifact
// regeneration, not throughput, is the point.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range All() {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(Params{Seed: 1, Out: io.Discard}); err != nil {
					b.Fatalf("%s: %v", e.ID, err)
				}
			}
		})
	}
}
