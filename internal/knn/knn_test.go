package knn

import (
	"math"
	"math/rand"
	"testing"

	"rex/internal/dataset"
	"rex/internal/movielens"
)

func TestPredictFromSimilarUsers(t *testing.T) {
	// Users 0 and 1 agree on items 0,1; user 1 also rated item 2 highly.
	rs := []dataset.Rating{
		{User: 0, Item: 0, Value: 5}, {User: 0, Item: 1, Value: 1},
		{User: 1, Item: 0, Value: 5}, {User: 1, Item: 1, Value: 1}, {User: 1, Item: 2, Value: 5},
		// An anti-correlated user also rated item 2 — low.
		{User: 2, Item: 0, Value: 1}, {User: 2, Item: 1, Value: 5}, {User: 2, Item: 2, Value: 1},
	}
	r := New(Config{K: 1, MinOverlap: 2, GlobalMean: 3}, rs)
	p := r.Predict(0, 2)
	// The similar user rated item 2 at 5 (above their mean): prediction
	// must be above user 0's mean (3).
	if p <= 3 {
		t.Fatalf("prediction %v should exceed the user mean", p)
	}
}

func TestPredictColdStart(t *testing.T) {
	r := New(DefaultConfig(), nil)
	if p := r.Predict(0, 0); p != DefaultConfig().GlobalMean {
		t.Fatalf("cold prediction %v", p)
	}
	r2 := New(DefaultConfig(), []dataset.Rating{{User: 7, Item: 1, Value: 4}})
	// Known user, no neighbors: user mean.
	if p := r2.Predict(7, 99); p != 4 {
		t.Fatalf("user-mean fallback %v", p)
	}
}

func TestSimilaritySymmetric(t *testing.T) {
	rs := []dataset.Rating{
		{User: 0, Item: 0, Value: 5}, {User: 0, Item: 1, Value: 2}, {User: 0, Item: 2, Value: 4},
		{User: 1, Item: 0, Value: 4}, {User: 1, Item: 1, Value: 1}, {User: 1, Item: 2, Value: 5},
	}
	r := New(Config{K: 5, MinOverlap: 2, GlobalMean: 3}, rs)
	ab, ok1 := r.rowSimilarity(r.rowOf(0), r.rowOf(1))
	ba, ok2 := r.rowSimilarity(r.rowOf(1), r.rowOf(0))
	if !ok1 || !ok2 {
		t.Fatal("similarity unavailable")
	}
	if math.Abs(ab-ba) > 1e-12 {
		t.Fatalf("asymmetric similarity: %v vs %v", ab, ba)
	}
}

func TestMinOverlapGuards(t *testing.T) {
	rs := []dataset.Rating{
		{User: 0, Item: 0, Value: 5}, {User: 0, Item: 5, Value: 2},
		{User: 1, Item: 0, Value: 5}, {User: 1, Item: 9, Value: 2},
	}
	r := New(Config{K: 5, MinOverlap: 2, GlobalMean: 3}, rs)
	if _, ok := r.rowSimilarity(r.rowOf(0), r.rowOf(1)); ok {
		t.Fatal("single-item overlap passed MinOverlap=2")
	}
}

// TestKNNImprovesWithMoreProfiles is the REX-enables-KNN property: the
// same user's predictions get better as more alien raw profiles land in
// the store — exactly what raw data sharing provides and parameter
// sharing cannot.
func TestKNNImprovesWithMoreProfiles(t *testing.T) {
	spec := movielens.Latest().Scaled(0.08)
	spec.Seed = 5
	ds := movielens.Generate(spec)
	rng := rand.New(rand.NewSource(6))
	tr, te := ds.SplitPerUser(0.7, rng)

	// "Local only": profiles of 10% of users. "After gossip": all.
	few := make([]dataset.Rating, 0)
	cut := uint32(ds.NumUsers / 10)
	for _, r := range tr.Ratings {
		if r.User < cut {
			few = append(few, r)
		}
	}
	// Evaluate on the same subset of test users present in both.
	var testSubset []dataset.Rating
	for _, r := range te.Ratings {
		if r.User < cut {
			testSubset = append(testSubset, r)
		}
	}
	local := New(DefaultConfig(), few).RMSE(testSubset)
	full := New(DefaultConfig(), tr.Ratings).RMSE(testSubset)
	if full >= local {
		t.Fatalf("more profiles should improve KNN: local-only %.4f, full %.4f", local, full)
	}
}

func TestRMSEEmpty(t *testing.T) {
	r := New(DefaultConfig(), nil)
	if got := r.RMSE(nil); got != 0 {
		t.Fatalf("empty rmse %v", got)
	}
}

func TestNumProfiles(t *testing.T) {
	r := New(DefaultConfig(), []dataset.Rating{{User: 1, Item: 1, Value: 3}, {User: 2, Item: 1, Value: 4}})
	if r.NumProfiles() != 2 {
		t.Fatalf("profiles %d", r.NumProfiles())
	}
}
