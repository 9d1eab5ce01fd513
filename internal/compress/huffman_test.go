package compress

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// fibonacciPlane returns a plane of k symbols whose counts are the first k
// Fibonacci numbers, shuffled: the weights that make an unconstrained
// Huffman code k-1 bits deep.
func fibonacciPlane(k int, rng *rand.Rand) []byte {
	var p []byte
	a, b := 1, 1
	for s := range k {
		p = append(p, bytes.Repeat([]byte{byte(3 * s)}, a)...)
		a, b = b, a+b
	}
	rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// unconstrainedBits is the cost of p under a Huffman code, which has no
// length limit: the sum of the weights of the internal nodes Huffman's
// merges make.
func unconstrainedBits(p []byte) int {
	var count [256]int
	for _, c := range p {
		count[c]++
	}
	var w []int
	for _, c := range count {
		if c > 0 {
			w = append(w, c)
		}
	}
	bits := 0
	for len(w) > 1 {
		slices.Sort(w)
		bits += w[0] + w[1]
		w = append(w[2:], w[0]+w[1])
	}
	return bits
}

// TestHuffmanRoundTrip is the coder's property test: planes of every short
// length and longer ones, none a multiple of four, over one symbol, two,
// all 256, skewed random counts, and Fibonacci counts deep enough to force
// the 11-bit cap, code to exactly the size plan promised and decode to
// themselves. No length passes the cap, and capping costs at most 0.5 %
// over an unconstrained Huffman code of the same plane.
func TestHuffmanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type plane struct {
		name string
		p    []byte
	}
	var planes []plane
	for n := range 10 {
		one := bytes.Repeat([]byte{0xA7}, n)
		two := make([]byte, n)
		for i := range two {
			two[i] = byte(rng.Intn(2)) * 0x80
		}
		planes = append(planes, plane{fmt.Sprintf("one symbol, %d bytes", n), one}, plane{fmt.Sprintf("two symbols, %d bytes", n), two})
	}
	for _, n := range []int{13, 257, 1001, 4099, 65537} {
		all := make([]byte, n)
		for i := range all {
			all[i] = byte(i) // every symbol once, then noise
			if i >= 256 {
				all[i] = byte(rng.Intn(256))
			}
		}
		if n < 256 {
			all = all[:0]
		}
		skewed := make([]byte, n)
		for i := range skewed {
			skewed[i] = byte(min(255, int(rng.ExpFloat64()*3)))
		}
		two := make([]byte, n)
		for i := range two {
			two[i] = 0x7C + byte(i%3/2)
		}
		planes = append(planes,
			plane{fmt.Sprintf("two symbols, %d bytes", n), two},
			plane{fmt.Sprintf("skewed, %d bytes", n), skewed})
		if len(all) > 0 {
			planes = append(planes, plane{fmt.Sprintf("all 256 symbols, %d bytes", n), all})
		}
	}
	for _, k := range []int{13, 20, 25} {
		p := fibonacciPlane(k, rng)
		planes = append(planes, plane{fmt.Sprintf("Fibonacci over %d symbols, %d bytes", k, len(p)), p})
	}
	var h huffEncoder
	var d huffDecoder
	capped := 0
	for _, tc := range planes {
		size := h.plan(tc.p)
		if len(tc.p) == 0 {
			continue // no code: the plane is stored
		}
		got := 0
		for s, l := range h.lens {
			if l > huffMaxLen {
				t.Fatalf("%s: symbol %d has a %d-bit code", tc.name, s, l)
			}
			got += int(l) * bytes.Count(tc.p, []byte{byte(s)})
		}
		if distinct := 256 - bytes.Count(h.lens[:], []byte{0}); distinct > 1 {
			opt := unconstrainedBits(tc.p)
			if float64(got) > 1.005*float64(opt) {
				t.Fatalf("%s: capped code costs %d bits, unconstrained Huffman %d", tc.name, got, opt)
			}
			if got > opt {
				capped++
				t.Logf("%s: capped code costs %d bits, unconstrained %d (+%.3f %%)", tc.name, got, opt, 100*float64(got-opt)/float64(opt))
			}
		}
		c := h.append([]byte("hdr"), tc.p)
		if string(c[:3]) != "hdr" || len(c)-3 != size {
			t.Fatalf("%s: coded to %d bytes, plan said %d", tc.name, len(c)-3, size)
		}
		out := make([]byte, len(tc.p))
		if err := d.decode(out, c[3:]); err != nil || !bytes.Equal(out, tc.p) {
			t.Fatalf("%s: round trip mismatch (err %v)", tc.name, err)
		}
	}
	if capped == 0 {
		t.Fatal("test premise broken: no plane needed the length cap")
	}
}
