package mf_test

import (
	"math/rand"
	"testing"

	"rex/internal/dataset"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/model/modeltest"
)

// TestConformance runs the shared model.Model invariant suite against the
// MF implementation (external test package: the suite sees exactly the
// exported surface the protocol sees).
func TestConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	data := make([]dataset.Rating, 600)
	for i := range data {
		data[i] = dataset.Rating{
			User:  uint32(rng.Intn(40)),
			Item:  uint32(rng.Intn(120)),
			Value: float32(rng.Intn(9)+1) / 2,
		}
	}
	modeltest.Run(t, modeltest.Config{
		New:        func() model.Model { return mf.New(mf.DefaultConfig()) },
		Data:       data,
		OOVUser:    90_000,
		OOVItem:    90_001,
		TrainSteps: 2000,
		// TestMarshalV2Layout pins the exact length.
		WireSizeBound: true,
	})
}
