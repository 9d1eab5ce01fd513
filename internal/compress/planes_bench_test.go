package compress

import (
	"bytes"
	"math/rand"
	"testing"

	"rex/internal/mf"
	"rex/internal/movielens"
)

// BenchmarkWordPlanes codes a trained MF model as word planes and back: the
// 4 745-row model of the runtime's TestModelSectionSavingFloor, about
// 190 KB marshaled, on a warm encoder and decoder as a node holds them.
func BenchmarkWordPlanes(b *testing.B) {
	spec := movielens.Latest().Scaled(0.5)
	spec.Seed = 33
	m := mf.New(mf.DefaultConfig())
	m.Train(movielens.Generate(spec).Ratings, 40000, rand.New(rand.NewSource(33)))
	raw, err := m.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	var e PlaneEncoder
	section := e.Append(nil, raw)
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for range b.N {
			section = e.Append(section[:0], raw)
		}
	})
	var d PlaneDecoder
	out, err := d.Append(nil, section, len(raw))
	if err != nil || !bytes.Equal(out, raw) {
		b.Fatalf("round trip mismatch (err %v)", err)
	}
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(raw)))
		for range b.N {
			out, _ = d.Append(out[:0], section, len(raw))
		}
	})
}
