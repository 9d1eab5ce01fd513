package model

import (
	"math"
	"math/rand"
	"testing"

	"rex/internal/dataset"
)

// constModel predicts a fixed value; enough to exercise RMSE mechanics.
type constModel float32

func (c constModel) Train([]dataset.Rating, int, *rand.Rand) {}
func (c constModel) Predict(uint32, uint32) float32          { return float32(c) }
func (c constModel) Marshal() ([]byte, error)                { return []byte{0}, nil }
func (c constModel) Unmarshal([]byte) error                  { return nil }
func (c constModel) MergeWeighted(float64, []Weighted)       {}
func (c constModel) ParamCount() int                         { return 1 }
func (c constModel) WireSize() int                           { return 1 }
func (c constModel) Clone() Model                            { return c }

func TestRMSEExact(t *testing.T) {
	data := []dataset.Rating{{Value: 3}, {Value: 5}}
	// Predicting 4: errors are 1 and 1 -> RMSE 1.
	if got := RMSE(constModel(4), data); math.Abs(got-1) > 1e-12 {
		t.Fatalf("rmse %v", got)
	}
}

func TestRMSEClampsPredictions(t *testing.T) {
	data := []dataset.Rating{{Value: 5}}
	// Model predicts 100, clamped to 5 -> zero error.
	if got := RMSE(constModel(100), data); got != 0 {
		t.Fatalf("clamped rmse %v", got)
	}
	// Model predicts -7, clamped to 0.5 against a 0.5 rating.
	if got := RMSE(constModel(-7), []dataset.Rating{{Value: 0.5}}); got != 0 {
		t.Fatalf("low clamp rmse %v", got)
	}
}

func TestRMSEEmpty(t *testing.T) {
	if got := RMSE(constModel(3), nil); got != 0 {
		t.Fatalf("empty rmse %v", got)
	}
}
