package compress

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"rex/internal/dataset"
	"rex/internal/movielens"
)

// TestStarNibbleBoundaries pins the grid classification down value by
// value: every on-grid star maps to its nibble, and everything else —
// boundary neighbors, NaN, infinities, huge floats — takes the escape
// path and still round-trips bit for bit through the columnar codec.
func TestStarNibbleBoundaries(t *testing.T) {
	cases := []struct {
		v      float32
		nibble byte
		onGrid bool
	}{
		{0.5, 0, true},
		{1.0, 1, true},
		{4.5, 8, true},
		{5.0, 9, true},
		{0, 15, false},
		{0.4, 15, false},
		{0.75, 15, false},
		{5.5, 15, false}, // doubled lands on 11: integral but past the grid
		{-0.5, 15, false},
		{float32(math.NaN()), 15, false},
		{float32(math.Inf(1)), 15, false},
		{float32(math.Inf(-1)), 15, false},
		{math.MaxFloat32, 15, false},
	}
	for _, tc := range cases {
		nb, ok := starToNibble(tc.v)
		if nb != tc.nibble || ok != tc.onGrid {
			t.Errorf("starToNibble(%v) = %d,%v want %d,%v", tc.v, nb, ok, tc.nibble, tc.onGrid)
		}
		rs := []dataset.Rating{{User: 3, Item: 7, Value: tc.v}}
		got, _, err := DecodeRatingsColumnar(AppendRatingsColumnar(nil, rs))
		if err != nil {
			t.Fatalf("roundtrip %v: %v", tc.v, err)
		}
		if len(got) != 1 || math.Float32bits(got[0].Value) != math.Float32bits(tc.v) {
			t.Errorf("roundtrip %v came back %v", tc.v, got)
		}
	}
}

func randomBlock(rng *rand.Rand, n int) []dataset.Rating {
	rs := make([]dataset.Rating, n)
	for i := range rs {
		rs[i] = dataset.Rating{
			User:  uint32(rng.Intn(6041)),
			Item:  uint32(rng.Intn(3953)),
			Value: float32(rng.Intn(10)+1) / 2,
		}
	}
	return rs
}

// TestColumnarRoundtripPreservesOrder is the property the delta codec
// leans on: the block comes back in exactly the input order, not sorted.
// Random blocks of 400 ratings and a 500-rating MovieLens sample (real id
// and star distributions) pack to at most 5 bytes a rating against the
// 12-byte raw encoding.
func TestColumnarRoundtripPreservesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	blocks := [][]dataset.Rating{movielens.Generate(movielens.Latest().Scaled(0.05)).Ratings[:500]}
	for _, n := range []int{0, 1, 2, 3, 30, 400} {
		rs := randomBlock(rng, n)
		if n > 2 {
			rs[1].Value = 9.75               // escape path
			rs[2] = dataset.Rating{Value: 3} // zero ids
		}
		blocks = append(blocks, rs)
	}
	for _, rs := range blocks {
		n := len(rs)
		enc := AppendRatingsColumnar(nil, rs)
		got, rest, err := DecodeRatingsColumnar(enc)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(rest) != 0 {
			t.Fatalf("n=%d: %d leftover bytes", n, len(rest))
		}
		if len(got) != len(rs) {
			t.Fatalf("n=%d: %d ratings back", n, len(got))
		}
		for i := range rs {
			if got[i].User != rs[i].User || got[i].Item != rs[i].Item ||
				math.Float32bits(got[i].Value) != math.Float32bits(rs[i].Value) {
				t.Fatalf("n=%d index %d: %+v != %+v", n, i, got[i], rs[i])
			}
		}
		if n >= 400 {
			perRating := float64(len(enc)) / float64(n)
			if perRating > 5 {
				t.Errorf("%d-rating block costs %.2f B/rating, want <= 5", n, perRating)
			}
		}
	}
}

// TestColumnarTrailingBytesSurvive checks section concatenation: the
// decoder must consume exactly its block and hand back the tail.
func TestColumnarTrailingBytesSurvive(t *testing.T) {
	rs := randomBlock(rand.New(rand.NewSource(3)), 17)
	enc := AppendRatingsColumnar(nil, rs)
	enc = append(enc, 0xAA, 0xBB, 0xCC)
	_, rest, err := DecodeRatingsColumnar(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 3 || rest[0] != 0xAA {
		t.Fatalf("tail %x", rest)
	}
}

func TestColumnarGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(64))
		rng.Read(b)
		DecodeRatingsColumnar(b)        // must not panic
		DecodeIndexDeltasAppend(nil, b) // must not panic
	}
	// Truncations of a valid encoding must error, never panic or hang.
	enc := AppendRatingsColumnar(nil, randomBlock(rng, 50))
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeRatingsColumnar(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d of %d decoded cleanly", cut, len(enc))
		}
	}
	// A count no buffer of this size can hold must be refused before
	// anything is sized by it.
	if _, _, err := DecodeRatingsColumnar([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}); err == nil {
		t.Fatal("implausible count accepted")
	}
}

func TestIndexDeltasRoundtrip(t *testing.T) {
	cases := [][]uint32{
		nil,
		{0},
		{5},
		{0, 1, 2, 3},
		{3, 90, 91, 4000, 1 << 30},
	}
	for _, idx := range cases {
		enc := AppendIndexDeltas(nil, idx)
		got, rest, err := DecodeIndexDeltasAppend(nil, enc)
		if err != nil {
			t.Fatalf("%v: %v", idx, err)
		}
		if len(rest) != 0 || len(got) != len(idx) {
			t.Fatalf("%v came back %v (tail %d)", idx, got, len(rest))
		}
		for i := range idx {
			if got[i] != idx[i] {
				t.Fatalf("%v came back %v", idx, got)
			}
		}
	}
	// A dense run of n sorted refs should cost ~1 byte each plus header.
	dense := make([]uint32, 400)
	for i := range dense {
		dense[i] = uint32(i * 7)
	}
	if n := len(AppendIndexDeltas(nil, dense)); n > 500 {
		t.Errorf("400 dense refs cost %d bytes", n)
	}
}

// TestColumnarAppendIntoDirtyScratch is the contract the runtime's
// per-peer decode scratch relies on: appending a block to a buffer that
// still holds an older, longer decode yields exactly the fresh decode
// after the kept prefix — zero-width columns and escapes included — and
// allocates nothing once the buffer fits.
func TestColumnarAppendIntoDirtyScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	zeroIDs := make([]dataset.Rating, 9) // both id columns have width 0
	for i := range zeroIDs {
		zeroIDs[i].Value = float32(i%5) + 1
	}
	zeroIDs[4].Value = 2.25 // escape
	prefix := dataset.Rating{User: 77, Item: 88, Value: 0.5}
	scratch := append([]dataset.Rating{prefix}, randomBlock(rng, 500)...)
	idx := []uint32{1 << 31, 1<<31 + 1}
	for _, rs := range [][]dataset.Rating{randomBlock(rng, 300), zeroIDs, nil, randomBlock(rng, 1)} {
		enc := AppendIndexDeltas(AppendRatingsColumnar(nil, rs), []uint32{2, 3, 900})
		want, _, err := DecodeRatingsColumnar(enc)
		if err != nil {
			t.Fatal(err)
		}
		var rest []byte
		allocs := testing.AllocsPerRun(5, func() {
			scratch, rest, err = DecodeRatingsColumnarAppend(scratch[:1], enc)
			if err == nil {
				idx, rest, err = DecodeIndexDeltasAppend(idx[:1], rest)
			}
		})
		if err != nil || len(rest) != 0 {
			t.Fatalf("%d ratings: err=%v, %d leftover bytes", len(rs), err, len(rest))
		}
		if allocs != 0 {
			t.Fatalf("%d ratings: decode into a fitting scratch allocates %.0f objects", len(rs), allocs)
		}
		if scratch[0] != prefix || !slices.Equal(scratch[1:], want) {
			t.Fatalf("%d ratings: dirty-scratch decode differs from a fresh one", len(rs))
		}
		if !slices.Equal(idx, []uint32{1 << 31, 2, 3, 900}) {
			t.Fatalf("index list %v", idx)
		}
	}
}
