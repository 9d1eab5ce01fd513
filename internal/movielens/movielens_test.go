package movielens

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
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
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
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

const sampleCSV = `userId,movieId,rating,timestamp
1,31,2.5,1260759144
1,1029,3.0,1260759179
2,31,4.0,835355493
3,1061,3.5,1260759182
`

func TestLoadCSV(t *testing.T) {
	ds, err := LoadCSV(strings.NewReader(sampleCSV), 0)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumUsers != 3 || ds.NumItems != 3 || len(ds.Ratings) != 4 {
		t.Fatalf("loaded %d users %d items %d ratings", ds.NumUsers, ds.NumItems, len(ds.Ratings))
	}
	// Dense remapping in first-appearance order: user "1" -> 0, item "31" -> 0.
	if ds.Ratings[0].User != 0 || ds.Ratings[0].Item != 0 || ds.Ratings[0].Value != 2.5 {
		t.Fatalf("first rating mismapped: %+v", ds.Ratings[0])
	}
	// Item 31 shared between users 1 and 2 must map to the same dense id.
	if ds.Ratings[2].Item != ds.Ratings[0].Item {
		t.Fatal("shared raw item mapped to different dense ids")
	}
}

func TestLoadCSVUserCap(t *testing.T) {
	ds, err := LoadCSV(strings.NewReader(sampleCSV), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ds.NumUsers != 2 {
		t.Fatalf("cap ignored: %d users", ds.NumUsers)
	}
	if len(ds.Ratings) != 3 {
		t.Fatalf("capped dataset has %d ratings, want 3", len(ds.Ratings))
	}
}

func TestLoadCSVErrors(t *testing.T) {
	if _, err := LoadCSV(strings.NewReader(""), 0); err == nil {
		t.Fatal("empty file accepted")
	}
	if _, err := LoadCSV(strings.NewReader("userId,movieId,rating\n1,2,notanumber\n"), 0); err == nil {
		t.Fatal("bad rating accepted")
	}
}

// TestLoadCSVPartitionedConformance checks the one-pass partitioned
// loader against the two-pass reference (LoadCSV + PartitionPerUser) on
// an interleaved multi-user file, with and without the user cap.
func TestLoadCSVPartitionedConformance(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("userId,movieId,rating,timestamp\n")
	// Users appear interleaved and out of order, sharing items, so the
	// dense remap and per-node grouping both do real work.
	rng := rand.New(rand.NewSource(31))
	users := []string{"42", "7", "100", "7", "42", "9", "100", "42", "9", "7", "55", "55"}
	for i, u := range users {
		fmt.Fprintf(&sb, "%s,%d,%.1f,0\n", u, 10+rng.Intn(6), float64(rng.Intn(9)+2)/2)
		_ = i
	}
	csvText := sb.String()

	for _, cap := range []int{0, 2} {
		ds, err := LoadCSV(strings.NewReader(csvText), cap)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ds.PartitionPerUser()
		if err != nil {
			t.Fatal(err)
		}
		parts, nu, ni, err := LoadCSVPartitioned(strings.NewReader(csvText), cap)
		if err != nil {
			t.Fatal(err)
		}
		if nu != ds.NumUsers || ni != ds.NumItems || len(parts) != len(want) {
			t.Fatalf("cap=%d: got %d users %d items %d parts, want %d/%d/%d",
				cap, nu, ni, len(parts), ds.NumUsers, ds.NumItems, len(want))
		}
		for node := range want {
			if len(parts[node]) != len(want[node]) {
				t.Fatalf("cap=%d node %d: %d ratings, want %d", cap, node, len(parts[node]), len(want[node]))
			}
			for k := range want[node] {
				if parts[node][k] != want[node][k] {
					t.Fatalf("cap=%d node %d rating %d: %+v, want %+v", cap, node, k, parts[node][k], want[node][k])
				}
			}
		}
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
