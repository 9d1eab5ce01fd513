package model_test

import (
	"math/rand"
	"testing"

	"rex/internal/dataset"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/nn"
)

// TestRMSEDoesNotAllocate pins the test stage's scratch off the per-call
// path: every node evaluates its model every epoch, and the batch scratch
// escapes through the BatchPredictor interface call. RMSE may allocate
// only what the model's own PredictBatch does for the same chunks (nothing
// for mf; a forward pass's activations for nn, a narrow one here because a
// collection empties the pool and the paper's network causes one every
// other call). The scratch comes from a sync.Pool, and the race detector
// drops a quarter of a pool's puts, so the bound is an average below one
// allocation, not zero.
func TestRMSEDoesNotAllocate(t *testing.T) {
	const chunk = 512                         // model.rmseBatch
	data := make([]dataset.Rating, chunk+188) // two chunks, the second one partial
	rng := rand.New(rand.NewSource(5))
	for i := range data {
		data[i] = dataset.Rating{User: uint32(rng.Intn(40)), Item: uint32(rng.Intn(90)), Value: float32(1+rng.Intn(10)) / 2}
	}
	users, items, preds := make([]uint32, len(data)), make([]uint32, len(data)), make([]float32, len(data))
	for i, r := range data {
		users[i], items[i] = r.User, r.Item
	}
	ncfg := nn.DefaultConfig(40, 90)
	ncfg.EmbDim, ncfg.Hidden = 4, []int{8}
	for name, m := range map[string]model.Model{
		"mf": mf.New(mf.DefaultConfig()),
		"nn": nn.NewNet(ncfg),
	} {
		m.Train(data, 200, rng)
		bp := m.(model.BatchPredictor)
		predict := testing.AllocsPerRun(200, func() {
			bp.PredictBatch(users[:chunk], items[:chunk], preds[:chunk])
			bp.PredictBatch(users[chunk:], items[chunk:], preds[chunk:])
		})
		model.RMSE(m, data) // warm: the pool holds a scratch
		if n := testing.AllocsPerRun(200, func() { model.RMSE(m, data) }); n-predict >= 1 {
			t.Errorf("%s: RMSE allocates %.2f objects per call, its PredictBatch calls %.2f", name, n, predict)
		}
	}
}
