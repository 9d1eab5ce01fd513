package experiments

import (
	"fmt"

	"rex/internal/core"
	"rex/internal/gossip"
	"rex/internal/knn"
	"rex/internal/metrics"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/rank"
	"rex/internal/sim"
)

func init() {
	register(Experiment{
		ID: "ext-knn",
		Title: "Extension: KNN collaborative filtering over REX stores " +
			"(§II-B: the recommender family raw data sharing enables)",
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
			cfg := simConfig(w, g, gossip.DPSGD, core.DataSharing, p, mcfg)
			cfg.KeepState = true
			res, err := sim.Run(cfg)
			if err != nil {
				return err
			}

			// Node 0's perspective: its private test set, three predictors.
			node := 0
			test := w.test[node]
			kcfg := knn.DefaultConfig()
			localKNN := knn.New(kcfg, w.train[node])     // before any gossip
			gossipKNN := knn.New(kcfg, res.Stores[node]) // after REX raw-data gossip
			t := metrics.NewTable("Predictor", "Profiles known", "RMSE on node-0 test set")
			t.AddRow("KNN, local data only", fmt.Sprintf("%d", localKNN.NumProfiles()),
				fmt.Sprintf("%.4f", localKNN.RMSE(test)))
			t.AddRow("KNN, post-REX store", fmt.Sprintf("%d", gossipKNN.NumProfiles()),
				fmt.Sprintf("%.4f", gossipKNN.RMSE(test)))
			t.AddRow("MF trained via REX", "-", fmt.Sprintf("%.4f", model.RMSE(res.Models[node], test)))
			fmt.Fprintln(p.Out, "== Extension: user-based KNN over raw-data stores ==")
			t.Fprint(p.Out)
			fmt.Fprintf(p.Out, "store grew %d -> %d ratings through gossip; KNN needs those alien\n",
				len(w.train[node]), len(res.Stores[node]))
			fmt.Fprintln(p.Out, "profiles and is simply impossible under parameter sharing — a second")
			fmt.Fprintln(p.Out, "model family REX unlocks for free (§II-B's WHATSUP line of work).")

			// Ranking view: top-N quality of the REX-trained MF model.
			k := 10
			rk := rank.Evaluate(res.Models[node], res.Stores[node], test, w.ds.NumItems, k)
			fmt.Fprintf(p.Out, "\nranking quality of node 0's model: precision@%d %.3f, recall@%d %.3f, NDCG@%d %.3f (%d users)\n",
				k, rk.PrecisionAtK, k, rk.RecallAtK, k, rk.NDCGAtK, rk.Users)
			return nil
		},
	})
}
