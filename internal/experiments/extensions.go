package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/gossip"
	"rex/internal/metrics"
	"rex/internal/mf"
	"rex/internal/movielens"
	"rex/internal/sim"
)

// The ext-* experiments cover the paper's discussion section (§IV-E) and
// explicitly deferred future work: pathological non-IID partitioning,
// crash failures, and data poisoning.

// partitionNonIID deals users to nodes in *sorted mean-rating order*, in
// contiguous blocks: every node sees a biased slice of the rating scale —
// the "pathological non-iid datasets" the paper plans to study (§IV-E-e).
func partitionNonIID(d *dataset.Dataset, n int) [][]dataset.Rating {
	sums := make(map[uint32]float64)
	counts := make(map[uint32]int)
	for _, r := range d.Ratings {
		sums[r.User] += float64(r.Value)
		counts[r.User]++
	}
	users := make([]uint32, 0, len(sums))
	for u := range sums {
		users = append(users, u)
	}
	sort.Slice(users, func(i, j int) bool {
		mi := sums[users[i]] / float64(counts[users[i]])
		mj := sums[users[j]] / float64(counts[users[j]])
		if mi != mj {
			return mi < mj
		}
		return users[i] < users[j]
	})
	byUser := make(map[uint32][]dataset.Rating)
	for _, r := range d.Ratings {
		byUser[r.User] = append(byUser[r.User], r)
	}
	parts := make([][]dataset.Rating, n)
	per := (len(users) + n - 1) / n
	for i, u := range users {
		node := i / per
		if node >= n {
			node = n - 1
		}
		parts[node] = append(parts[node], byUser[u]...)
	}
	return parts
}

func init() {
	register(Experiment{
		ID:    "ext-noniid",
		Title: "Extension: pathological non-IID partitioning (paper §IV-E future work) — REX vs MS",
		Run: func(p Params) error {
			p = p.defaults()
			spec := latestSpec(p.Full, p.Seed)
			ds := movielens.Generate(spec)
			rng := rand.New(rand.NewSource(p.Seed))
			tr, te := ds.SplitPerUser(0.7, rng)
			n := multiUserNodes(p.Full)
			g, err := buildGraph("SW", n, p.Seed)
			if err != nil {
				return err
			}
			mcfg := mf.DefaultConfig()

			run := func(mode core.Mode, iid bool) (*sim.Result, error) {
				w := &workload{ds: ds, nodes: n}
				if iid {
					w.train, err = tr.PartitionUsersAcross(n, rand.New(rand.NewSource(p.Seed+1)))
					if err != nil {
						return nil, err
					}
					w.test, err = te.PartitionUsersAcross(n, rand.New(rand.NewSource(p.Seed+1)))
					if err != nil {
						return nil, err
					}
				} else {
					w.train = partitionNonIID(dataset.New(tr.Ratings), n)
					w.test = partitionNonIID(dataset.New(te.Ratings), n)
				}
				return sim.Run(simConfig(w, g, gossip.DPSGD, mode, p, mcfg))
			}

			t := metrics.NewTable("Partitioning", "Scheme", "Final RMSE", "Sim time")
			for _, iid := range []bool{true, false} {
				name := "IID (shuffled users)"
				if !iid {
					name = "non-IID (rating-sorted)"
				}
				for _, mode := range []core.Mode{core.ModelSharing, core.DataSharing} {
					res, err := run(mode, iid)
					if err != nil {
						return err
					}
					t.AddRow(name, mode.String(),
						fmt.Sprintf("%.4f", res.FinalRMSE),
						metrics.FormatSeconds(res.TotalTimeMean))
				}
			}
			fmt.Fprintln(p.Out, "== Extension: non-IID partitioning (D-PSGD, SW) ==")
			t.Fprint(p.Out)
			fmt.Fprintln(p.Out, "at this skew both schemes absorb the bias (user-mean skew is exactly what")
			fmt.Fprintln(p.Out, "the bias terms model); REX additionally re-mixes raw data across nodes, so")
			fmt.Fprintln(p.Out, "its store distribution converges back toward IID as training proceeds.")
			return nil
		},
	})

	register(Experiment{
		ID:    "ext-churn",
		Title: "Extension: crash failures mid-training (paper §III-D leaves fault tolerance to future work)",
		Run: func(p Params) error {
			p = p.defaults()
			n := multiUserNodes(p.Full)
			w, err := multiUser(latestSpec(p.Full, p.Seed), n, p.Seed)
			if err != nil {
				return err
			}
			g, err := buildGraph("SW", n, p.Seed)
			if err != nil {
				return err
			}
			mcfg := mf.DefaultConfig()
			t := metrics.NewTable("Failures", "Scheme", "Final RMSE", "Failed")
			for _, frac := range []float64{0, 0.2} {
				failAt := map[int]int{}
				rng := rand.New(rand.NewSource(p.Seed + 7))
				for i := 0; i < int(frac*float64(n)); i++ {
					failAt[rng.Intn(n)] = epochs(p.Full) / 3
				}
				for _, mode := range []core.Mode{core.ModelSharing, core.DataSharing} {
					cfg := simConfig(w, g, gossip.DPSGD, mode, p, mcfg)
					cfg.FailAt = failAt
					res, err := sim.Run(cfg)
					if err != nil {
						return err
					}
					t.AddRow(fmt.Sprintf("%.0f%%", frac*100), mode.String(),
						fmt.Sprintf("%.4f", res.FinalRMSE),
						fmt.Sprintf("%d", res.FailedNodes))
				}
			}
			fmt.Fprintln(p.Out, "== Extension: 20% of nodes crash one third into training ==")
			t.Fprint(p.Out)
			fmt.Fprintln(p.Out, "survivors keep converging in both schemes; under REX the crashed nodes'")
			fmt.Fprintln(p.Out, "raw data had already spread into survivors' stores, so nothing is lost.")
			return nil
		},
	})

	register(Experiment{
		ID:    "ext-poison",
		Title: "Extension: data poisoning by Byzantine enclaves (paper §IV-E-c: outside the SGX threat model)",
		Run: func(p Params) error {
			p = p.defaults()
			n := multiUserNodes(p.Full)
			w, err := multiUser(latestSpec(p.Full, p.Seed), n, p.Seed)
			if err != nil {
				return err
			}
			g, err := buildGraph("SW", n, p.Seed)
			if err != nil {
				return err
			}
			mcfg := mf.DefaultConfig()
			t := metrics.NewTable("Byzantine", "Scheme", "Final RMSE", "Degradation")
			base := map[core.Mode]float64{}
			for _, frac := range []float64{0, 0.1, 0.3} {
				byz := map[int]bool{}
				rng := rand.New(rand.NewSource(p.Seed + 13))
				for len(byz) < int(frac*float64(n)) {
					byz[rng.Intn(n)] = true
				}
				for _, mode := range []core.Mode{core.ModelSharing, core.DataSharing} {
					cfg := simConfig(w, g, gossip.DPSGD, mode, p, mcfg)
					cfg.Byzantine = byz
					res, err := sim.Run(cfg)
					if err != nil {
						return err
					}
					deg := ""
					if frac == 0 {
						base[mode] = res.FinalRMSE
					} else {
						deg = fmt.Sprintf("+%.1f%%", (res.FinalRMSE/base[mode]-1)*100)
					}
					t.AddRow(fmt.Sprintf("%.0f%%", frac*100), mode.String(),
						fmt.Sprintf("%.4f", res.FinalRMSE), deg)
				}
			}
			fmt.Fprintln(p.Out, "== Extension: rating-inversion poisoning (attested code, hostile inputs) ==")
			t.Fprint(p.Out)
			fmt.Fprintln(p.Out, "attestation nullifies rogue *code* but, exactly as §IV-E-c warns, cannot")
			fmt.Fprintln(p.Out, "stop poisoned *inputs*. Notably, raw data sharing is the more exposed")
			fmt.Fprintln(p.Out, "scheme: poisoned triplets persist verbatim in every receiving store, while")
			fmt.Fprintln(p.Out, "weighted model averaging dilutes a poisoned model at each merge.")
			return nil
		},
	})
}
