package movielens

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"rex/internal/dataset"
)

// corpusDigest hashes a dataset's id bounds and every rating in order.
func corpusDigest(d *dataset.Dataset) string {
	h := sha256.New()
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(d.NumUsers))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(d.NumItems))
	h.Write(hdr[:])
	h.Write(dataset.EncodeRatings(d.Ratings))
	return hex.EncodeToString(h.Sum(nil))
}

// placementDigest hashes a per-node placement: each part's length, then its
// ratings.
func placementDigest(parts [][]dataset.Rating) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write(dataset.EncodeRatings(p))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratePinned pins the generator's output bit for bit. The digests
// were recorded from the rand.Zipf / map-dedup generator; a change to the
// sampler, the dedup or the rng call order moves them. Never regenerate
// them to make a change pass.
func TestGeneratePinned(t *testing.T) {
	bench := Latest().Scaled(0.5)
	bench.Seed = 33
	for _, c := range []struct {
		name string
		spec Spec
		want string
	}{
		{"Latest", Latest(), "08d79eab4692dc988efc446dd7ffc6b58c1e80cf9cbf3ec49316ca1209aa5139"},
		{"Latest×0.5 seed 33", bench, "095809fc9bb7ba7033c5e0bed042a2c39de8c9d1fab4923f2d5ba048efb1f50f"},
		{"Latest×0.05", Latest().Scaled(0.05), "059c7c08dfb4d60aa60568e66262e5b5169b3c71e758ece7d42556bb154d5587"},
		{"25M-capped×0.05", TwentyFiveMCapped().Scaled(0.05), "d26ed3cde57375dbf967f7ea673dbc023998fe42b2dac463168c2947f5bcfd7e"},
	} {
		if got := corpusDigest(Generate(c.spec)); got != c.want {
			t.Errorf("%s: corpus digest %s, want %s", c.name, got, c.want)
		}
	}
}

// TestBenchmarkPlacementPinned pins the split and the placements the
// benchmark derives from its corpus (Latest×0.5, seed 33): 2 nodes for
// serve-rw, 8 for the cluster workloads.
func TestBenchmarkPlacementPinned(t *testing.T) {
	spec := Latest().Scaled(0.5)
	spec.Seed = 33
	tr, te := Generate(spec).SplitPerUser(0.7, rand.New(rand.NewSource(33)))
	if got, want := corpusDigest(tr), "85a6911d5369a5c45f13df485a4479cb046f9bc1e60838e219aedee84a0b4f5a"; got != want {
		t.Errorf("train split: digest %s, want %s", got, want)
	}
	if got, want := corpusDigest(te), "4199e45349ba3376301ba33c7952c7c4638c61c025802302645d6e77e7dc6d66"; got != want {
		t.Errorf("test split: digest %s, want %s", got, want)
	}
	for _, c := range []struct {
		nodes       int
		train, test string
	}{
		{2,
			"61c262dbd8223d1e18dddc03f1a468655062917aa05a027221bf51f05836ee7b",
			"c3a97fa271f8ea1dbc35f06ca759c333bf067e9aa57e28f8e89c20d50fae77af"},
		{8,
			"d1b3da77b12c0f609b48b61cc5d751a69107043301c2c7c815d92f7143615ac8",
			"eff3ba340b9b91b802de7ef67bfe103f489502a3f3b1b147f12b24806fb4eda6"},
	} {
		train, err := tr.PartitionUsersAcross(c.nodes, rand.New(rand.NewSource(33)))
		if err != nil {
			t.Fatal(err)
		}
		test, err := te.PartitionUsersAcross(c.nodes, rand.New(rand.NewSource(33)))
		if err != nil {
			t.Fatal(err)
		}
		if got := placementDigest(train); got != c.train {
			t.Errorf("%d nodes: train placement digest %s, want %s", c.nodes, got, c.train)
		}
		if got := placementDigest(test); got != c.test {
			t.Errorf("%d nodes: test placement digest %s, want %s", c.nodes, got, c.test)
		}
	}
}
