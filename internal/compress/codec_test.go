package compress

import (
	"bytes"
	"compress/flate"
	"io"
	"math/rand"
	"runtime"
	"strings"
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

// stdlibDeflate is the one-shot compressor Deflate was before it shared
// the Deflater's code: the reference for "same stream".
func stdlibDeflate(t *testing.T, b []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(b)
	w.Close()
	return buf.Bytes()
}

// TestDeflaterStreamIsTheOneShotStream pins "no byte on the wire changes":
// a Deflater on its first, a later, or a smaller-after-larger input, and
// whatever dst already holds, emits exactly what a new flate.Writer would.
func TestDeflaterStreamIsTheOneShotStream(t *testing.T) {
	var d Deflater
	for i, n := range []int{4000, 90000, 700, 0, 90000} {
		in := floatish(n, int64(i))
		want := stdlibDeflate(t, in, flate.DefaultCompression)
		got, err := d.Append([]byte("hdr"), in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[3:], want) || string(got[:3]) != "hdr" {
			t.Fatalf("input %d (%d bytes): reused Deflater's stream differs from a new writer's", i, n)
		}
		if one, err := Deflate(in, 0); err != nil || !bytes.Equal(one, want) {
			t.Fatalf("input %d: Deflate differs from a new writer's stream (err %v)", i, err)
		}
	}
	in := floatish(5000, 9)
	if got, err := Deflate(in, 9); err != nil || !bytes.Equal(got, stdlibDeflate(t, in, 9)) {
		t.Fatalf("Deflate ignores its level (err %v)", err)
	}
}

// TestCodecWarmRoundTripDoesNotAllocate: once a Deflater and an Inflater
// have run and their buffers have held a section this large, a round trip
// allocates nothing of theirs; likewise a PlaneEncoder and a PlaneDecoder.
// The standard library's decoder builds second-level Huffman tables per
// block whenever a code is longer than nine bits, reset or not; that cost
// is measured on a bare, reset flate reader filling a fixed buffer, and is
// all the Inflater, or the PlaneDecoder on its coded planes, may allocate.
func TestCodecWarmRoundTripDoesNotAllocate(t *testing.T) {
	var d Deflater
	var z Inflater
	in := floatish(60000, 1)
	comp, err := d.Append(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { comp, _ = d.Append(comp[:0], in) }); n != 0 {
		t.Fatalf("warm Deflater allocates %.0f objects", n)
	}

	var src bytes.Reader
	fr := flate.NewReader(&src)
	fixed := make([]byte, len(in))
	stdlib := testing.AllocsPerRun(20, func() {
		src.Reset(comp)
		fr.(flate.Resetter).Reset(&src, nil)
		io.ReadFull(fr, fixed)
	})
	out, err := z.Append(nil, comp, len(in))
	if err != nil || !bytes.Equal(out, in) {
		t.Fatalf("round trip mismatch (err %v)", err)
	}
	if n := testing.AllocsPerRun(20, func() { out, _ = z.Append(out[:0], comp, len(in)) }); n != stdlib {
		t.Fatalf("warm Inflater allocates %.0f objects, a reset flate reader alone %.0f", n, stdlib)
	}

	var pe PlaneEncoder
	var pd PlaneDecoder
	in = floatish(60000, 1)
	planes, err := pe.Append(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { planes, _ = pe.Append(planes[:0], in) }); n != 0 {
		t.Fatalf("warm PlaneEncoder allocates %.0f objects", n)
	}
	out, err = pd.Append(out[:0], planes, len(in))
	if err != nil || !bytes.Equal(out, in) {
		t.Fatalf("word-plane round trip mismatch (err %v)", err)
	}
	stdlib = bareInflateAllocs(t, in, planes[0])
	if n := testing.AllocsPerRun(20, func() { out, _ = pd.Append(out[:0], planes, len(in)) }); n != stdlib {
		t.Fatalf("warm PlaneDecoder allocates %.0f objects, a reset flate reader on its coded planes alone %.0f", n, stdlib)
	}
}

// TestInflaterLimit: a section inflates up to max bytes and not one more,
// and the bytes a hostile section makes the decoder allocate are bounded by
// max (plus append's headroom), not by what the section expands to.
func TestInflaterLimit(t *testing.T) {
	bomb, err := Deflate(make([]byte, 8<<20), 0) // 8 MB of zeros in ~8 KB
	if err != nil {
		t.Fatal(err)
	}
	var z Inflater
	const max = 10000
	if _, err := z.Append(nil, bomb, max); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("8 MB section under a %d-byte limit: err = %v", max, err)
	}
	// The same inflater still works, and the limit is inclusive.
	in := floatish(max, 2)
	comp, _ := Deflate(in, 0)
	out, err := z.Append([]byte{7}, comp, max)
	if err != nil || !bytes.Equal(out[1:], in) || out[0] != 7 {
		t.Fatalf("section of exactly max bytes: err = %v", err)
	}
	if _, err := z.Append(nil, comp, max-1); err == nil {
		t.Fatal("section one byte past the limit accepted")
	}
	if _, err := z.Append(nil, comp[:len(comp)/2], max); err == nil {
		t.Fatal("truncated stream accepted")
	}
	// A buffer is grown only while it holds no more than max bytes, so it
	// ends below twice that; and what the bomb made the decoder allocate is
	// a few times the limit (the growth steps), not the 8 MB it expands to.
	if c := cap(out); c > 2*(max+1)+64 {
		t.Fatalf("dst grew to %d bytes under a %d-byte limit", c, max)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		z.Append(nil, bomb, max)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / 10; per > 8*max {
		t.Fatalf("a rejected 8 MB section made the decoder allocate %d bytes under a %d-byte limit", per, max)
	}
}

// FuzzInflateAppend throws arbitrary bytes at the wire-facing inflater, on
// a reused Inflater as the runtime holds one: whatever the stream, no
// panic, an accepted section is at most max bytes behind an untouched
// prefix, and an Inflater that rejected garbage inflates the next valid
// section correctly.
func FuzzInflateAppend(f *testing.F) {
	valid, _ := Deflate(floatish(3000, 3), 0)
	f.Add(valid, 4096)
	f.Add(valid[:len(valid)/2], 4096) // truncated
	bomb, _ := Deflate(make([]byte, 1<<20), 0)
	f.Add(bomb, 4096) // expands past the limit
	f.Add([]byte{}, 0)
	want := floatish(3000, 3)
	f.Fuzz(func(t *testing.T, b []byte, max int) {
		if max < 0 || max > 1<<20 {
			t.Skip()
		}
		var z Inflater
		out, err := z.Append([]byte("pre"), b, max)
		if err == nil && (len(out)-3 > max || string(out[:3]) != "pre") {
			t.Fatalf("accepted %d bytes under a limit of %d (prefix %q)", len(out)-3, max, out[:3])
		}
		if cap(out) > 2*(max+4)+64 {
			t.Fatalf("dst grew to %d bytes under a limit of %d", cap(out), max)
		}
		if got, err := z.Append(nil, valid, len(want)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("after %d fuzzed bytes the inflater fails a valid section: %v", len(b), err)
		}
	})
}
