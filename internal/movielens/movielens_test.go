package movielens

import (
	"fmt"
	"math"
	"testing"

	"rex/internal/dataset"
)

func TestGenerateTableIShape(t *testing.T) {
	spec := Latest().Scaled(0.1)
	ds := Generate(spec)
	st := Summarize(ds)
	if math.Abs(float64(st.Ratings-spec.Ratings)) > float64(spec.Ratings)/50 {
		t.Fatalf("ratings %d, want ~%d", st.Ratings, spec.Ratings)
	}
	if st.Users != spec.Users {
		t.Fatalf("users %d, want %d (min-3 policy gives every user ratings)", st.Users, spec.Users)
	}
	if st.Items > spec.Items {
		t.Fatalf("items %d exceeds spec %d", st.Items, spec.Items)
	}
	if st.MeanRating < 3.0 || st.MeanRating > 4.1 {
		t.Fatalf("mean rating %.2f outside MovieLens-like range", st.MeanRating)
	}
	for _, r := range ds.Ratings {
		if int(r.User) >= ds.NumUsers || int(r.Item) >= ds.NumItems || r.Value != r.Value {
			t.Fatalf("rating %+v outside %d users, %d items, or NaN", r, ds.NumUsers, ds.NumItems)
		}
	}
}

func TestGenerateStarScale(t *testing.T) {
	ds := Generate(Latest().Scaled(0.05))
	for _, r := range ds.Ratings {
		v := float64(r.Value)
		if v < 0.5 || v > 5.0 {
			t.Fatalf("rating %v out of range", v)
		}
		if math.Mod(v*2, 1) != 0 {
			t.Fatalf("rating %v not a half-star", v)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Latest().Scaled(0.05))
	b := Generate(Latest().Scaled(0.05))
	if len(a.Ratings) != len(b.Ratings) {
		t.Fatal("same spec, different sizes")
	}
	for i := range a.Ratings {
		if a.Ratings[i] != b.Ratings[i] {
			t.Fatalf("rating %d differs under identical seed", i)
		}
	}
	c := Latest().Scaled(0.05)
	c.Seed = 999
	d := Generate(c)
	same := len(a.Ratings) == len(d.Ratings)
	if same {
		identical := true
		for i := range a.Ratings {
			if a.Ratings[i] != d.Ratings[i] {
				identical = false
				break
			}
		}
		if identical {
			t.Fatal("different seeds produced identical data")
		}
	}
}

func TestGenerateNoDuplicatePairs(t *testing.T) {
	ds := Generate(Latest().Scaled(0.08))
	seen := make(map[uint64]bool, len(ds.Ratings))
	for _, r := range ds.Ratings {
		if seen[r.Key()] {
			t.Fatalf("duplicate (user,item) pair: %+v", r)
		}
		seen[r.Key()] = true
	}
}

func TestGenerateZipfPopularity(t *testing.T) {
	ds := Generate(Latest().Scaled(0.2))
	counts := make(map[uint32]int)
	for _, r := range ds.Ratings {
		counts[r.Item]++
	}
	st := Summarize(ds)
	avg := float64(st.Ratings) / float64(st.Items)
	if float64(st.MaxItemDegree) < 5*avg {
		t.Fatalf("no blockbuster effect: max item degree %d vs avg %.1f", st.MaxItemDegree, avg)
	}
}

func TestGenerateMinimumPerUser(t *testing.T) {
	ds := Generate(Latest().Scaled(0.05))
	counts := make(map[uint32]int)
	for _, r := range ds.Ratings {
		counts[r.User]++
	}
	for u, c := range counts {
		if c < 3 {
			t.Fatalf("user %d has %d ratings (<3 breaks per-user splits)", u, c)
		}
	}
}

func TestScaledFloors(t *testing.T) {
	s := Latest().Scaled(0.000001)
	if s.Users < 2 || s.Items < 2 || s.Ratings < 2 {
		t.Fatalf("scaled spec underflows: %+v", s)
	}
}

func TestTwentyFiveMSpec(t *testing.T) {
	s := TwentyFiveMCapped()
	if s.Users != 15000 || s.Items != 28830 || s.Ratings != 2249739 {
		t.Fatalf("25M-capped spec drifted from Table I: %+v", s)
	}
	l := Latest()
	if l.Users != 610 || l.Items != 9000 || l.Ratings != 100000 {
		t.Fatalf("Latest spec drifted from Table I: %+v", l)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	st := Summarize(&dataset.Dataset{})
	if st.Ratings != 0 || st.Users != 0 || st.Density != 0 {
		t.Fatalf("empty summary: %+v", st)
	}
}

// TestSpecValidate checks that Validate rejects the specs Generate could
// never finish — and that Generate panics on them instead of spinning —
// and accepts every spec the repository generates.
func TestSpecValidate(t *testing.T) {
	zipfOne, zipfNaN := Latest(), Latest()
	zipfOne.ZipfS, zipfNaN.ZipfS = 1, math.NaN()
	noDim, negNoise, infShape := Latest(), Latest(), Latest()
	noDim.LatentDim, negNoise.NoiseStd, infShape.UserActivityShape = 0, -1, math.Inf(1)
	for _, c := range []struct {
		name string
		spec Spec
	}{
		{"Latest×0.01 (pad loop)", Latest().Scaled(0.01)},
		{"Latest×0.001 (pad loop)", Latest().Scaled(0.001)},
		{"Latest×0 (trim loop)", Latest().Scaled(0)},
		{"ZipfS 1", zipfOne},
		{"ZipfS NaN", zipfNaN},
		{"LatentDim 0", noDim},
		{"NoiseStd -1", negNoise},
		{"UserActivityShape +Inf", infShape},
	} {
		err := c.spec.Validate()
		if err == nil {
			t.Errorf("%s: %+v validated", c.name, c.spec)
			continue
		}
		func() {
			defer func() {
				if r := recover(); fmt.Sprint(r) != err.Error() {
					t.Errorf("%s: Generate panicked with %v, want %v", c.name, r, err)
				}
			}()
			Generate(c.spec)
		}()
	}

	big := TwentyFiveMCapped()
	big.Users, big.Items, big.Ratings = 300, 2400, 60_000 // experiments' scaled bigSpec
	valid := []Spec{Latest(), TwentyFiveMCapped(), big}
	for pct := 3; pct <= 100; pct++ {
		valid = append(valid, Latest().Scaled(float64(pct)/100), TwentyFiveMCapped().Scaled(float64(pct)/100))
	}
	for _, s := range valid {
		if err := s.Validate(); err != nil {
			t.Errorf("%+v: %v", s, err)
		}
	}
}
