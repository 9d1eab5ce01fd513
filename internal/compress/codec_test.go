package compress

import (
	"bytes"
	"math/rand"
	"testing"
)

// floatish returns n bytes shaped like marshaled float32 parameters: they
// deflate a little, as a model section does.
func floatish(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, n)
	for i := range b {
		if i%4 == 3 {
			b[i] = 0x3d + byte(rng.Intn(2)) // exponent bytes repeat
		} else {
			b[i] = byte(rng.Intn(256))
		}
	}
	return b
}

// TestCodecWarmRoundTripDoesNotAllocate: once a PlaneEncoder and a
// PlaneDecoder have run and their buffers have held a section this large, a
// round trip allocates nothing, coded planes included.
func TestCodecWarmRoundTripDoesNotAllocate(t *testing.T) {
	var pe PlaneEncoder
	var pd PlaneDecoder
	in := floatish(60000, 1)
	planes := pe.Append(nil, in)
	if planes[0] != planeCoded3 {
		t.Fatalf("test premise broken: plane flags %#x, want the exponent plane coded", planes[0])
	}
	if n := testing.AllocsPerRun(20, func() { planes = pe.Append(planes[:0], in) }); n != 0 {
		t.Fatalf("warm PlaneEncoder allocates %.0f objects", n)
	}
	out, err := pd.Append(nil, planes, len(in))
	if err != nil || !bytes.Equal(out, in) {
		t.Fatalf("word-plane round trip mismatch (err %v)", err)
	}
	if n := testing.AllocsPerRun(20, func() { out, _ = pd.Append(out[:0], planes, len(in)) }); n != 0 {
		t.Fatalf("warm PlaneDecoder allocates %.0f objects", n)
	}
}
