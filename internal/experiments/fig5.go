package experiments

import (
	"fmt"

	"rex/internal/core"
	"rex/internal/gossip"
	"rex/internal/metrics"
	"rex/internal/model"
	"rex/internal/nn"
	"rex/internal/sim"
)

// dnnNodes is the DNN scenario size: the paper uses 50 nodes each holding
// 12-13 users (§IV-A3b); the scaled run uses 10.
func dnnNodes(full bool) int {
	if full {
		return 50
	}
	return 10
}

// dnnConfig builds the §IV-A3b network for the workload's id space: at
// full scale the paper architecture (~218k params); scaled-down otherwise.
func dnnConfig(full bool, numUsers, numItems int) nn.Config {
	cfg := nn.DefaultConfig(numUsers, numItems)
	if !full {
		cfg.EmbDim = 8
		cfg.Hidden = []int{32, 16, 8, 8}
		cfg.BatchSize = 16
		// The tiny network tolerates a larger step; paper-scale runs keep
		// the paper's 1e-4.
		cfg.LearningRate = 1e-3
	}
	return cfg
}

// mlpParams counts the non-embedding parameters of a DNN config, needed by
// the cost model.
func mlpParams(cfg nn.Config) int {
	in := 2 * cfg.EmbDim
	total := 0
	for _, h := range cfg.Hidden {
		total += in*h + h
		in = h
	}
	total += in + 1
	return total
}

// dnnRun is one Fig 5 cell: algo fixed to D-PSGD (the paper's DNN uses
// D-PSGD only), topology SW or ER, mode MS or DS.
func dnnRun(p Params, topo string, mode core.Mode) (*sim.Result, error) {
	return memoized(memoKey("fig5", p.Full, p.Seed, topo, mode, p.scenarioTag()), func() (*sim.Result, error) {
		n := dnnNodes(p.Full)
		w, err := multiUser(latestSpec(p.Full, p.Seed), n, p.Seed)
		if err != nil {
			return nil, err
		}
		g, err := buildGraph(topo, n, p.Seed)
		if err != nil {
			return nil, err
		}
		ncfg := dnnConfig(p.Full, w.ds.NumUsers, w.ds.NumItems)
		ep := 80 // the paper's Fig 5(c) x-axis
		steps := 60
		points := 40 // §IV-A3b: nodes share 40 data points per epoch
		if !p.Full {
			ep, steps = 60, 25
		}
		return sim.Run(sim.Config{
			Graph: g, Algo: gossip.DPSGD, Mode: mode,
			Epochs: ep, StepsPerEpoch: steps, SharePoints: points,
			NewModel: func(int) model.Model { return nn.NewNet(ncfg) },
			Train:    w.train, Test: w.test,
			Net:       sim.DefaultNet(),
			Compute:   sim.DNNCompute(mlpParams(ncfg), ncfg.EmbDim, ncfg.BatchSize),
			TestEvery: testCadence(p.Full),
			Scenario:  p.Scenario,
			Seed:      p.Seed,
		})
	})
}

func init() {
	register(Experiment{
		ID:    "fig5",
		Title: "Fig 5: DNN, 50 nodes, D-PSGD — stage breakdown, data volume, RMSE vs epochs (SW & ER)",
		Run: func(p Params) error {
			p = p.defaults()
			type cell struct {
				name string
				topo string
				mode core.Mode
			}
			cells := []cell{
				{"SW, REX", "SW", core.DataSharing},
				{"SW, MS", "SW", core.ModelSharing},
				{"ER, REX", "ER", core.DataSharing},
				{"ER, MS", "ER", core.ModelSharing},
			}
			results := make(map[string]*sim.Result, len(cells))
			for _, c := range cells {
				r, err := dnnRun(p, c.topo, c.mode)
				if err != nil {
					return fmt.Errorf("fig5 %s: %w", c.name, err)
				}
				results[c.name] = r
			}

			fmt.Fprintln(p.Out, "== Fig 5(a): per-epoch stage breakdown [s] ==")
			ta := metrics.NewTable("Cell", "Merge", "Train", "Share", "Test", "Total")
			for _, c := range cells {
				st := results[c.name].Stage
				ta.AddRow(c.name,
					fmt.Sprintf("%.4f", st.Merge), fmt.Sprintf("%.4f", st.Train),
					fmt.Sprintf("%.4f", st.Share), fmt.Sprintf("%.4f", st.Test),
					fmt.Sprintf("%.4f", st.Total()))
			}
			ta.Fprint(p.Out)

			fmt.Fprintln(p.Out, "\n== Fig 5(b): data volume exchanged per node per epoch ==")
			tb := metrics.NewTable("Cell", "Data in+out / epoch")
			for _, c := range cells {
				r := results[c.name]
				tb.AddRow(c.name, metrics.FormatBytes(r.Series[len(r.Series)-1].EpochBytesPerNode))
			}
			tb.Fprint(p.Out)

			fmt.Fprintln(p.Out, "\n== Fig 5(c): test error vs epochs ==")
			for _, c := range cells {
				metrics.FprintSeries(p.Out, p.Points, rmseVsEpoch(results[c.name], c.name))
			}
			return nil
		},
	})
}
