package compress

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"testing"
)

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
		enc := e.Append([]byte("hdr"), tc.in)
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
		if one := fresh.Append(nil, tc.in); !bytes.Equal(one, enc[3:]) {
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
	enc := e.Append(nil, in)
	def, _ := Deflate(in, 0)
	t.Logf("%d B: word planes %.3f, DEFLATE %.3f", len(in), float64(len(enc))/float64(len(in)), float64(len(def))/float64(len(in)))
	if len(enc) >= len(def) || float64(len(enc)) > 0.86*float64(len(in)) {
		t.Fatalf("word planes %d B, DEFLATE %d B, raw %d B", len(enc), len(def), len(in))
	}
	if enc[0] != planeCoded3 {
		t.Fatalf("plane flags %#x: want the exponent plane coded and the mantissa plane stored", enc[0])
	}
}

// codedPlane is a huffEncoder's coding of p, as a coded plane's section
// holds it behind its u32 length.
func codedPlane(p []byte) []byte {
	var h huffEncoder
	h.plan(p)
	return h.append(nil, p)
}

// malformedPlanes returns word-plane sections a decoder must refuse, built
// from the valid encoding of 256 parameters (exponent plane coded): the
// section's own framing broken, and plane 3's Huffman coding broken in
// every way the decoder checks.
func malformedPlanes(t testing.TB) map[string][]byte {
	in := floatish(1024, 6)
	var e PlaneEncoder
	valid := e.Append(nil, in)
	if valid[0] != planeCoded3 || valid[1] != 0x80 || valid[2] != 8 {
		t.Fatalf("premise: 1024 bytes should encode with plane 3 coded (header % x)", valid[:3])
	}
	const words = 256
	stored := 3 + 3*words // header, planes 0 and 1, stored plane 2
	withFlags := func(f byte) []byte { return append([]byte{f}, valid[1:]...) }
	// withPlane3 is valid with plane 3's coded bytes edited by f.
	withPlane3 := func(c []byte, edit func(c []byte) []byte) []byte {
		c = edit(append([]byte(nil), c...))
		out := binary.LittleEndian.AppendUint32(append([]byte(nil), valid[:stored]...), uint32(len(c)))
		return append(out, c...)
	}
	coded := valid[stored+4:]
	nibs := 0
	for _, b := range coded[:huffBitmapLen] {
		nibs += bits.OnesCount8(b)
	}
	nibs = (nibs + 1) / 2
	streams := huffBitmapLen + nibs + 3*4
	setNibbles := func(v byte) func(c []byte) []byte {
		return func(c []byte) []byte {
			for i := huffBitmapLen; i < huffBitmapLen+nibs; i++ {
				c[i] = v
			}
			return c
		}
	}
	// Symbols 1, 2 and 3 at lengths 1, 2 and 2: three nibbles, so the last
	// header byte has a padding nibble, and stream 3 codes 47 ones and 17
	// others, 81 bits, so its last byte has seven padding bits.
	three := make([]byte, words)
	for i := range three {
		three[i] = 1
		if i%4 == 3 {
			three[i] = 2 + byte(i/4%2)
		}
	}
	three[254] = 2
	odd := codedPlane(three)
	lone := codedPlane(bytes.Repeat([]byte{0x7C}, words))
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
		"trailing byte":            append(append([]byte(nil), valid...), 0),
		"coded flag, stored plane": withFlags(planeCoded3 | planeCoded2),
		"stored flag, coded plane": withFlags(0),
		"header cut short":         withPlane3(coded, func(c []byte) []byte { return c[:huffBitmapLen+nibs+3*4-1] }),
		"no symbols":               withPlane3(coded, func(c []byte) []byte { clear(c[:huffBitmapLen]); return c }),
		"over-subscribed code":     withPlane3(coded, setNibbles(0x11)),
		"incomplete code":          withPlane3(coded, setNibbles(0xBB)),
		"code length 0":            withPlane3(coded, setNibbles(0x00)),
		"code length 12":           withPlane3(coded, setNibbles(0xCC)),
		"code length 15":           withPlane3(coded, setNibbles(0xFF)),
		"header padding set":       withPlane3(odd, func(c []byte) []byte { c[huffBitmapLen+1] |= 0x10; return c }),
		"stream padding set":       withPlane3(odd, func(c []byte) []byte { c[len(c)-1] |= 0x80; return c }),
		"stream length past section": withPlane3(coded, func(c []byte) []byte {
			binary.LittleEndian.PutUint32(c[streams-4:], uint32(len(c)-streams+1))
			return c
		}),
		"stream decodes short":            withPlane3(coded, func(c []byte) []byte { return c[:len(c)-1] }),
		"stream decodes long":             withPlane3(coded, func(c []byte) []byte { return append(c, 0) }),
		"streams shifted":                 withPlane3(coded, func(c []byte) []byte { c[streams-12]--; c[streams-8]++; return c }),
		"one-symbol plane, trailing byte": withPlane3(lone, func(c []byte) []byte { return append(c, 0) }),
		"one-symbol plane, length 2":      withPlane3(lone, func(c []byte) []byte { c[huffBitmapLen] = 2; return c }),
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
	in := floatish(1024, 6)
	var e PlaneEncoder
	valid := e.Append(nil, in)
	if out, err := d.Append(nil, valid, len(in)); err != nil || !bytes.Equal(out, in) {
		t.Fatalf("valid section after rejects: err %v", err)
	}
}

// TestWordPlanesDecoderBounds: what hostile bytes can make a decoder hold
// is bounded by the bytes themselves and by max, not by what they claim.
func TestWordPlanesDecoderBounds(t *testing.T) {
	var e PlaneEncoder
	big := e.Append(nil, make([]byte, 2<<20))
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
	valid := enc.Append(nil, want)
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

		if coded := enc.Append(nil, b); len(coded) > len(b)+planeHeaderMax {
			t.Fatalf("%d bytes encode to %d", len(b), len(coded))
		} else if got, err := d.Append(nil, coded, len(b)); err != nil || !bytes.Equal(got, b) {
			t.Fatalf("%d bytes do not survive a round trip: %v", len(b), err)
		}
	})
}
