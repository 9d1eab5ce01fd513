package baseline

import (
	"math/rand"
	"testing"

	"rex/internal/mf"
	"rex/internal/movielens"
)

func TestCentralizedConverges(t *testing.T) {
	spec := movielens.Latest().Scaled(0.05)
	spec.Seed = 4
	ds := movielens.Generate(spec)
	rng := rand.New(rand.NewSource(5))
	tr, te := ds.SplitPerUser(0.7, rng)
	res := Run(mf.New(mf.DefaultConfig()), tr.Ratings, te.Ratings, 10, len(tr.Ratings), 6)
	if len(res.RMSE) != 10 {
		t.Fatalf("epochs recorded: %d", len(res.RMSE))
	}
	if res.FinalRMSE >= res.RMSE[0] {
		t.Fatalf("no improvement: %.4f -> %.4f", res.RMSE[0], res.FinalRMSE)
	}
}
