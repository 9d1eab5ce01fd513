package mf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"rex/internal/dataset"
	"rex/internal/model"
	"rex/internal/vec"
)

// goldenRatings builds a fixed synthetic workload, self-contained so the
// golden hashes below never depend on the movielens generator.
func goldenRatings(seed int64, n int) []dataset.Rating {
	rng := rand.New(rand.NewSource(seed))
	out := make([]dataset.Rating, n)
	for i := range out {
		out[i] = dataset.Rating{
			User:  uint32(rng.Intn(200)),
			Item:  uint32(rng.Intn(500)),
			Value: float32(rng.Intn(9)+1) / 2, // 0.5 .. 4.5 half-stars
		}
	}
	return out
}

// modelDigest hashes m's v1 rendering, the bytes the golden digests were
// recorded over.
func modelDigest(t *testing.T, m *Model) string {
	t.Helper()
	sum := sha256.Sum256(v1Rendering(t, m))
	return hex.EncodeToString(sum[:])
}

// v1Rendering lays m's (id, record) pairs out as the retired v1 encoding
// did: the header under the v1 magic, then users and items in ascending id
// order, each a u32 id followed by its record. It rebuilds them from m's
// Marshal output with a walk of its own, so a digest over it pins the wire
// as well as the trajectory.
func v1Rendering(t testing.TB, m *Model) []byte {
	t.Helper()
	buf, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rec := 4 * (m.cfg.K + 1)
	counts := [2]int{int(binary.LittleEndian.Uint32(buf[8:])), int(binary.LittleEndian.Uint32(buf[12:]))}
	out := binary.LittleEndian.AppendUint32(nil, magicV1)
	out = append(out, buf[4:16]...)
	recs, cols := buf[16:], buf[16+rec*(counts[0]+counts[1]):]
	for _, n := range counts {
		id := -1
		for i := 0; i < n; i++ {
			gap, w := binary.Uvarint(cols)
			if w <= 0 {
				t.Fatalf("id column cut short at row %d", i)
			}
			id += 1 + int(gap)
			cols = cols[w:]
			out = binary.LittleEndian.AppendUint32(out, uint32(id))
			out = append(out, recs[:rec]...)
			recs = recs[rec:]
		}
	}
	if len(cols) != 0 {
		t.Fatalf("%d bytes after the id columns", len(cols))
	}
	return out
}

// TestGoldenTrajectory pins the exact float32 training/merge trajectory of
// the scalar pre-refactor implementation: Train must consume the rng in the
// same draw order and produce bit-identical parameters, MergeWeighted must
// reproduce the same weighted union, and Marshal the same (id, record)
// pairs.
// Any change to these hashes is a results change and must be owned loudly.
func TestGoldenTrajectory(t *testing.T) {
	runGoldenTrajectory(t)
}

// TestGoldenTrajectoryEveryVecImpl re-pins the exact same hashes with
// dispatch forced onto each kernel implementation this machine offers
// (avx2/sse2/neon/go): the SIMD paths must reproduce the scalar
// trajectory bit for bit, not merely converge to similar RMSE. The CI
// forced-path sweep additionally runs the whole suite under each REX_VEC
// value, and the arm64 job runs this test on real NEON hardware.
func TestGoldenTrajectoryEveryVecImpl(t *testing.T) {
	prev := vec.Impl()
	defer func() {
		if err := vec.Use(prev); err != nil {
			t.Fatal(err)
		}
	}()
	for _, name := range vec.Available() {
		t.Run(name, func(t *testing.T) {
			if err := vec.Use(name); err != nil {
				t.Fatal(err)
			}
			runGoldenTrajectory(t)
		})
	}
}

func runGoldenTrajectory(t *testing.T) {
	t.Helper()
	data := goldenRatings(42, 4000)
	dataB := goldenRatings(43, 4000)

	a := New(DefaultConfig())
	a.Train(data, 20_000, rand.New(rand.NewSource(1)))
	if got, want := modelDigest(t, a), goldenAfterTrain; got != want {
		t.Errorf("train trajectory diverged:\n got %s\nwant %s", got, want)
	}

	b := New(DefaultConfig())
	b.Train(dataB, 20_000, rand.New(rand.NewSource(2)))
	a.MergeWeighted(0.25, []model.Weighted{{M: b, W: 0.75}})
	if got, want := modelDigest(t, a), goldenAfterMerge; got != want {
		t.Errorf("merge result diverged:\n got %s\nwant %s", got, want)
	}

	// Train on top of the merged state: the full epoch cycle stays pinned.
	a.Train(data, 5_000, rand.New(rand.NewSource(3)))
	if got, want := modelDigest(t, a), goldenAfterRetrain; got != want {
		t.Errorf("post-merge train trajectory diverged:\n got %s\nwant %s", got, want)
	}
}

// Golden SHA-256 digests of the v1 encoding (v1Rendering), recorded from
// the scalar implementation at the commit introducing internal/vec.
const (
	goldenAfterTrain   = "e4f7c341d58361600ac897e9c2c18452041850bc8d24b8040bc502d11b1acb12"
	goldenAfterMerge   = "29fc8945cc4b41c7c27ad711793a7e5971e7bcb29d30115ffd8ac24507419228"
	goldenAfterRetrain = "d0497bdc4f47e4f71fc779b611db1629b0fa09ad940070d9e279b50e9e70f6a7"
)
