// Package baseline implements the centralized trainer every figure of the
// paper charts as "Centralized (baseline)": one process holding the whole
// training set, training the same model with the same step budget, whose
// test error is the floor decentralized runs converge toward.
package baseline

import (
	"math/rand"

	"rex/internal/dataset"
	"rex/internal/model"
)

// Result is the centralized run's learning curve.
type Result struct {
	// RMSE[e] is the test error after epoch e.
	RMSE []float64
	// FinalRMSE is the last entry of RMSE.
	FinalRMSE float64
}

// Run trains m for epochs x stepsPerEpoch SGD steps over the full training
// set, evaluating on test after every epoch.
func Run(m model.Model, train, test []dataset.Rating, epochs, stepsPerEpoch int, seed int64) *Result {
	rng := rand.New(rand.NewSource(seed))
	res := &Result{RMSE: make([]float64, 0, epochs)}
	for e := 0; e < epochs; e++ {
		m.Train(train, stepsPerEpoch, rng)
		r := model.RMSE(m, test)
		res.RMSE = append(res.RMSE, r)
		res.FinalRMSE = r
	}
	return res
}
