package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"io"
	"math/bits"
	"math/rand"
	"testing"
)

// highPlanes is the test's own split of b: bytes 2 and 3 of every word
// rotated left by one — what a PlaneEncoder hands its Huffman coder.
func highPlanes(b []byte) (hi [2][]byte) {
	for i := 0; i+4 <= len(b); i += 4 {
		w := bits.RotateLeft32(binary.LittleEndian.Uint32(b[i:]), 1)
		hi[0], hi[1] = append(hi[0], byte(w>>16)), append(hi[1], byte(w>>24))
	}
	return hi
}

// bareInflateAllocs is what the standard library's inflater allocates, warm
// and reset, on the Huffman streams of those of b's high planes that the
// encoding's flags say are coded: its per-block link tables, which no
// caller can pool.
func bareInflateAllocs(t *testing.T, b []byte, flags byte) float64 {
	t.Helper()
	var streams [][]byte
	for i, p := range highPlanes(b) {
		if flags&(planeCoded2<<i) != 0 {
			streams = append(streams, stdlibDeflate(t, p, flate.HuffmanOnly))
		}
	}
	var src bytes.Reader
	fr := flate.NewReader(&src)
	fixed := make([]byte, len(b)/4)
	return testing.AllocsPerRun(20, func() {
		for _, s := range streams {
			src.Reset(s)
			fr.(flate.Resetter).Reset(&src, nil)
			io.ReadFull(fr, fixed)
		}
	})
}

func TestWordPlanesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	noise := make([]byte, 4099)
	rng.Read(noise)
	var e PlaneEncoder
	var d PlaneDecoder
	for _, tc := range []struct {
		name   string
		in     []byte
		shrink bool
	}{
		{"empty", nil, false},
		{"one byte", []byte{9}, false},
		{"three bytes", []byte{1, 2, 3}, false},
		{"one word", []byte{1, 2, 3, 4}, false},
		{"params", floatish(80000, 1), true},
		{"params and a tail", append(floatish(12000, 2), 7, 8, 9), true},
		{"few params", floatish(400, 3), true}, // 400 B: a small section is still worth coding
		{"zeros", make([]byte, 10001), true},
		{"ones", bytes.Repeat([]byte{0xFF}, 10002), true},
		{"noise", noise, false},
		{"params again", floatish(80000, 1), true}, // smaller-after-larger scratch, same bytes as the first time
	} {
		enc, err := e.Append([]byte("hdr"), tc.in)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(enc[:3]) != "hdr" || len(enc)-3 > len(tc.in)+planeHeaderMax {
			t.Fatalf("%s: %d bytes encode to %d behind prefix %q", tc.name, len(tc.in), len(enc)-3, enc[:3])
		}
		if tc.shrink != (len(enc)-3 < len(tc.in)) {
			t.Fatalf("%s: %d bytes encode to %d, want smaller: %v", tc.name, len(tc.in), len(enc)-3, tc.shrink)
		}
		dec, err := d.Append([]byte("pre"), enc[3:], len(tc.in))
		if err != nil || !bytes.Equal(dec[3:], tc.in) || string(dec[:3]) != "pre" {
			t.Fatalf("%s: round trip mismatch (err %v)", tc.name, err)
		}
		if _, err := d.Append(nil, enc[3:], len(tc.in)-1); err == nil {
			t.Fatalf("%s: decoded past the limit", tc.name)
		}
		var fresh PlaneEncoder
		if one, _ := fresh.Append(nil, tc.in); !bytes.Equal(one, enc[3:]) {
			t.Fatalf("%s: a reused encoder's bytes differ from a new one's", tc.name)
		}
	}
}

// TestWordPlanesBeatDeflate is the codec's reason to exist, on bytes
// shaped like its workload: smaller than default-level DEFLATE of the same
// parameters, with the exponent plane coded and the mantissa plane stored.
func TestWordPlanesBeatDeflate(t *testing.T) {
	in := floatish(160000, 4)
	var e PlaneEncoder
	enc, err := e.Append(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	def, _ := Deflate(in, 0)
	t.Logf("%d B: word planes %.3f, DEFLATE %.3f", len(in), float64(len(enc))/float64(len(in)), float64(len(def))/float64(len(in)))
	if len(enc) >= len(def) || float64(len(enc)) > 0.86*float64(len(in)) {
		t.Fatalf("word planes %d B, DEFLATE %d B, raw %d B", len(enc), len(def), len(in))
	}
	if enc[0] != planeCoded3 {
		t.Fatalf("plane flags %#x: want the exponent plane coded and the mantissa plane stored", enc[0])
	}
}

// malformedPlanes returns word-plane sections a decoder must refuse, built
// from the valid encoding of 64 parameters (exponent plane coded).
func malformedPlanes(t testing.TB) map[string][]byte {
	in := floatish(256, 6)
	var e PlaneEncoder
	valid, err := e.Append(nil, in)
	if err != nil || valid[0] != planeCoded3 || valid[1] != 0x80 || valid[2] != 2 {
		t.Fatalf("premise: 256 bytes should encode with plane 3 coded (err %v, header % x)", err, valid[:3])
	}
	const words = 64
	stored := 3 + 3*words // header, planes 0 and 1, stored plane 2
	recode := func(plane []byte) []byte {
		out := append([]byte(nil), valid[:stored]...)
		stream, _ := Deflate(plane, flate.HuffmanOnly)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(stream)))
		return append(out, stream...)
	}
	withFlags := func(f byte) []byte { return append([]byte{f}, valid[1:]...) }
	exp := highPlanes(in)[1]
	return map[string][]byte{
		"no header":                {},
		"flags only":               {planeCoded3},
		"unknown flag":             withFlags(planeCoded3 | 4),
		"overlong length":          append([]byte{0}, bytes.Repeat([]byte{0x80}, 11)...),
		"stored planes cut short":  valid[:3+2*words-1],
		"length past the frame":    append(binary.AppendUvarint([]byte{planeCoded3}, 1<<19), valid[3:]...),
		"stored plane 2 missing":   valid[:stored-1],
		"coded length cut short":   valid[:stored+3],
		"coded length past frame":  append(append([]byte(nil), valid[:stored]...), 0xFF, 0xFF, 0xFF, 0x7F),
		"coded stream truncated":   valid[:len(valid)-3],
		"plane inflates short":     recode(exp[:words-1]),
		"plane inflates long":      recode(append(exp[:words:words], 0x7C)),
		"trailing byte":            append(append([]byte(nil), valid...), 0),
		"coded flag, stored plane": withFlags(planeCoded3 | planeCoded2),
		"stored flag, coded plane": withFlags(0),
	}
}

func TestWordPlanesRejectMalformed(t *testing.T) {
	var d PlaneDecoder
	for name, b := range malformedPlanes(t) {
		if out, err := d.Append(nil, b, 1<<20); err == nil {
			t.Errorf("%s: accepted, %d bytes out", name, len(out))
		}
	}
	// The decoder that refused all of that still decodes.
	in := floatish(256, 6)
	var e PlaneEncoder
	valid, _ := e.Append(nil, in)
	if out, err := d.Append(nil, valid, len(in)); err != nil || !bytes.Equal(out, in) {
		t.Fatalf("valid section after rejects: err %v", err)
	}
}

// TestWordPlanesDecoderBounds: what hostile bytes can make a decoder hold
// is bounded by the bytes themselves and by max, not by what they claim.
func TestWordPlanesDecoderBounds(t *testing.T) {
	var e PlaneEncoder
	big, err := e.Append(nil, make([]byte, 2<<20))
	if err != nil {
		t.Fatal(err)
	}
	var d PlaneDecoder
	if _, err := d.Append(nil, big, 1<<20); err == nil {
		t.Fatal("2 MB section accepted under a 1 MB limit")
	}
	if c := cap(d.hi[0]) + cap(d.hi[1]); c != 0 {
		t.Fatalf("a section over the limit sized %d bytes of scratch", c)
	}
	out, err := d.Append(nil, big, 2<<20)
	if err != nil || len(out) != 2<<20 {
		t.Fatalf("2 MB section at its limit: err %v", err)
	}
	// A short frame declaring a long payload never gets as far as scratch.
	var d2 PlaneDecoder
	lie := append([]byte{planeCoded2 | planeCoded3}, binary.AppendUvarint(nil, 1<<20)...)
	lie = append(lie, make([]byte, 1000)...)
	if _, err := d2.Append(nil, lie, 64<<20); err == nil {
		t.Fatal("1 MB payload accepted from a 1 KB frame")
	}
	if c := cap(d2.hi[0]) + cap(d2.hi[1]); c != 0 {
		t.Fatalf("a frame that cannot hold its planes sized %d bytes of scratch", c)
	}
}

// FuzzWordPlanes feeds arbitrary bytes to both ends of the codec, on a
// reused decoder as the runtime holds one. As a section off the wire: no
// panic, an accepted payload is at most max bytes behind an untouched
// prefix, no buffer grows past what max and the section's own length allow
// (plus headroom), and the decoder then decodes a valid section correctly.
// As a payload: it encodes within the header bound and decodes to itself.
func FuzzWordPlanes(f *testing.F) {
	want := floatish(3000, 3)
	var enc PlaneEncoder
	valid, _ := enc.Append(nil, want)
	f.Add(valid, 4096)
	f.Add(valid, 100) // over the limit
	for _, b := range malformedPlanes(f) {
		f.Add(b, 4096)
	}
	f.Add([]byte{}, 0)
	f.Add([]byte{1, 2, 3, 4, 5}, 5)
	f.Add(make([]byte, 64), 64)
	f.Add(bytes.Repeat([]byte{0xFF}, 67), 67)
	f.Fuzz(func(t *testing.T, b []byte, max int) {
		if max < 0 || max > 1<<20 {
			t.Skip()
		}
		var d PlaneDecoder
		out, err := d.Append([]byte("pre"), b, max)
		if err == nil && (len(out)-3 > max || string(out[:3]) != "pre") {
			t.Fatalf("accepted %d bytes under a limit of %d (prefix %q)", len(out)-3, max, out[:3])
		}
		limit := min(max, 2*len(b))
		if c := cap(out); c > 3+limit+limit/8+8 {
			t.Fatalf("dst grew to %d bytes under a limit of %d from a %d-byte section", c, max, len(b))
		}
		for _, p := range d.hi {
			if w := limit/4 + 1; cap(p) > w+w/8 {
				t.Fatalf("plane scratch grew to %d bytes under a limit of %d from a %d-byte section", cap(p), max, len(b))
			}
		}
		if got, err := d.Append(nil, valid, len(want)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("after %d fuzzed bytes the decoder fails a valid section: %v", len(b), err)
		}

		coded, err := enc.Append(nil, b)
		if err != nil || len(coded) > len(b)+planeHeaderMax {
			t.Fatalf("%d bytes encode to %d (err %v)", len(b), len(coded), err)
		}
		if got, err := d.Append(nil, coded, len(b)); err != nil || !bytes.Equal(got, b) {
			t.Fatalf("%d bytes do not survive a round trip: %v", len(b), err)
		}
	})
}
