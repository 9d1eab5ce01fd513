package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// Canonical Huffman coding of one byte plane: the entropy coder under the
// word planes. A coded plane is
//
//	[32-byte presence bitmap][4-bit code length per present symbol]
//	[u32 length 0][u32 length 1][u32 length 2][stream 0][stream 1][stream 2][stream 3]
//
// Bit i of the bitmap (byte i/8, bit i%8) says symbol i occurs. The code
// lengths follow in ascending symbol order, two to a byte, low nibble first;
// an odd count leaves the last high nibble zero. Every length is 1 to
// huffMaxLen, and the code is canonical (RFC 1951 §3.2.2: shorter codes
// first, ties by symbol), so the lengths are the whole code. The plane is
// cut into four segments of ⌈n/4⌉ bytes, the last taking what remains, and
// each segment is its own LSB-first bitstream of codes, zero-padded to a
// byte; stream 3's length is what the section has left after the other
// three. The four streams are what make decoding fast: one table lookup per
// symbol, and four independent lookups in flight instead of one chain.
//
// A plane of a single symbol is that symbol with length 1 and four empty
// streams: it decodes from its length alone. Any other code must be
// complete — its Kraft sum exactly one — so every 11-bit pattern decodes.
const (
	huffMaxLen    = 11
	huffTableSize = 1 << huffMaxLen
	huffBitmapLen = 256 / 8
	// huffHeaderMax bounds a coded plane's bytes besides its streams.
	huffHeaderMax = huffBitmapLen + 256/2 + 3*4
)

var (
	errHuffHeader = errors.New("compress: bad Huffman code")
	errHuffStream = errors.New("compress: Huffman stream does not decode to its segment")
)

// huffSegments cuts p into the four segments the streams code.
func huffSegments(p []byte) (seg [4][]byte) {
	n := len(p)
	step := (n + 3) / 4
	for k := range seg {
		seg[k] = p[min(k*step, n):min((k+1)*step, n)]
	}
	return seg
}

// huffCodes returns each symbol's canonical code, bit-reversed for an
// LSB-first stream, for the code lengths lens (0: absent).
func huffCodes(lens *[256]uint8) (codes [256]uint16) {
	var count [huffMaxLen + 1]uint16
	for _, l := range lens {
		if l != 0 {
			count[l]++
		}
	}
	var next [huffMaxLen + 1]uint16
	code := uint16(0)
	for l := 1; l <= huffMaxLen; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for s, l := range lens {
		if l != 0 {
			codes[s] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
	return codes
}

// huffEncoder builds a plane's code and writes its streams. Its tables are
// reused from plane to plane.
type huffEncoder struct {
	hist   [4][256]int // symbol counts per segment
	lens   [256]uint8
	code   [256]uint64        // canonical codes, bit-reversed
	sorted [256]uint64        // count<<8 | symbol, present symbols only
	pm     [2][2 * 256]uint64 // package-merge lists' weights
	size   [4]int             // stream bytes
}

// plan builds the length-limited Huffman code of p and returns the bytes
// append would write for it. A plane of no bytes has no code: plan returns
// huffHeaderMax, which no empty plane is worth.
func (h *huffEncoder) plan(p []byte) int {
	// Counted in lockstep, four tables in flight, so a run of one symbol
	// does not wait on its own increments.
	seg := huffSegments(p)
	h.hist = [4][256]int{}
	h0, h1, h2, h3 := &h.hist[0], &h.hist[1], &h.hist[2], &h.hist[3]
	short := len(seg[3])
	s0, s1, s2 := seg[0][:short], seg[1][:short], seg[2][:short]
	for i, c := range seg[3] {
		h0[s0[i]]++
		h1[s1[i]]++
		h2[s2[i]]++
		h3[c]++
	}
	for k, s := range seg[:3] {
		for _, c := range s[short:] {
			h.hist[k][c]++
		}
	}
	present := 0
	for s := range 256 {
		if c := h.hist[0][s] + h.hist[1][s] + h.hist[2][s] + h.hist[3][s]; c > 0 {
			h.sorted[present] = uint64(c)<<8 | uint64(s)
			present++
		}
	}
	h.lens = [256]uint8{}
	switch present {
	case 0:
		return huffHeaderMax
	case 1:
		h.lens[h.sorted[0]&0xFF] = 1
		h.size = [4]int{}
		return huffBitmapLen + 1 + 3*4
	}
	slices.Sort(h.sorted[:present]) // by count, ties by symbol: the code does not depend on sort stability
	h.lengths(present)
	codes := huffCodes(&h.lens)
	for s, c := range codes {
		h.code[s] = uint64(c)
	}
	size := huffBitmapLen + (present+1)/2 + 3*4
	for k := range h.size {
		b := 0
		for s, l := range h.lens {
			b += h.hist[k][s] * int(l)
		}
		h.size[k] = (b + 7) / 8
		size += h.size[k]
	}
	return size
}

// lengths sets the code lengths of the present symbols, h.sorted[:n] by
// ascending count (n at least two): an optimal prefix code among those no
// longer than huffMaxLen. It is package-merge (Larmore and Hirschberg, "A
// fast algorithm for optimal length-limited Huffman codes", 1990): list
// huffMaxLen-1 holds the symbols by weight; each list above merges them
// with the pairs ("packages") of the list below; the 2n-2 lightest items of
// the top list are the code, a symbol's length the number of lists its
// copies are chosen from. A prefix of m items takes the lightest symbols
// among its leaves, and its packages the first 2·(m - leaves) items of the
// list below, so the lists are kept only as which positions are leaves.
func (h *huffEncoder) lengths(n int) {
	weight := func(i int) uint64 { return h.sorted[i] >> 8 }
	var leaf [huffMaxLen][2 * 256 / 64]uint64
	prev, cur := h.pm[0][:0], h.pm[1][:0]
	for i := range n {
		prev = append(prev, weight(i))
		leaf[huffMaxLen-1][i>>6] |= 1 << (i & 63)
	}
	for level := huffMaxLen - 2; level >= 0; level-- {
		cur = cur[:0]
		for li, pi := 0, 0; li < n || pi+1 < len(prev); {
			if pi+1 >= len(prev) || (li < n && weight(li) <= prev[pi]+prev[pi+1]) {
				leaf[level][len(cur)>>6] |= 1 << (len(cur) & 63)
				cur = append(cur, weight(li))
				li++
			} else {
				cur = append(cur, prev[pi]+prev[pi+1])
				pi += 2
			}
		}
		prev, cur = cur, prev
	}
	var depth [256]uint8
	for level, m := 0, 2*n-2; m > 0; level++ {
		leaves := 0
		for w := 0; w < m>>6; w++ {
			leaves += bits.OnesCount64(leaf[level][w])
		}
		if m&63 != 0 {
			leaves += bits.OnesCount64(leaf[level][m>>6] & (1<<(m&63) - 1))
		}
		for i := range leaves {
			depth[i]++
		}
		m = 2 * (m - leaves)
	}
	for i, v := range h.sorted[:n] {
		h.lens[v&0xFF] = depth[i]
	}
}

// append writes the coded plane of p, with the code plan built from p, to
// dst.
func (h *huffEncoder) append(dst, p []byte) []byte {
	dst = reserve(dst, huffHeaderMax+h.size[0]+h.size[1]+h.size[2]+h.size[3]+8)
	at := len(dst)
	dst = append(dst, make([]byte, huffBitmapLen)...)
	nib := 0
	for s, l := range h.lens {
		if l == 0 {
			continue
		}
		dst[at+(s>>3)] |= 1 << (s & 7)
		if nib&1 == 0 {
			dst = append(dst, l)
		} else {
			dst[len(dst)-1] |= l << 4
		}
		nib++
	}
	for _, n := range h.size[:3] {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	}
	if nib == 1 {
		return dst
	}
	for _, s := range huffSegments(p) {
		dst = h.appendStream(dst, s)
	}
	return dst
}

// appendStream writes one segment's codes to dst, LSB first, zero-padded to
// a byte. dst must have room for the stream and eight bytes more: the
// accumulator is stored whole after every four codes (at most 7 + 44 bits
// pending) and the cursor advanced by the bytes it completed, which keeps
// the loop free of branches on the bit count.
func (h *huffEncoder) appendStream(dst, seg []byte) []byte {
	code, lens := &h.code, &h.lens
	buf := dst[len(dst):cap(dst)]
	at := 0
	var acc uint64
	var n uint
	i := 0
	// Shift counts are masked to six bits, which they never pass, so the
	// shifts compile without Go's over-width handling.
	for ; i+4 <= len(seg); i += 4 {
		q := seg[i : i+4 : i+4]
		acc |= code[q[0]] << (n & 63)
		n += uint(lens[q[0]])
		acc |= code[q[1]] << (n & 63)
		n += uint(lens[q[1]])
		acc |= code[q[2]] << (n & 63)
		n += uint(lens[q[2]])
		acc |= code[q[3]] << (n & 63)
		n += uint(lens[q[3]])
		binary.LittleEndian.PutUint64(buf[at:], acc)
		at += int(n >> 3)
		acc >>= n & 56
		n &= 7
	}
	for _, c := range seg[i:] {
		acc |= code[c] << (n & 63)
		n += uint(lens[c])
		binary.LittleEndian.PutUint64(buf[at:], acc)
		at += int(n >> 3)
		acc >>= n & 56
		n &= 7
	}
	return dst[:len(dst)+at+int(n+7)/8]
}

// huffDecoder decodes coded planes through one table, rebuilt per plane.
type huffDecoder struct {
	// table maps the next huffMaxLen bits of a stream to the symbol they
	// start with and its code length: symbol<<4 | length.
	table [huffTableSize]uint16
}

// decode decodes the coded plane c into out, which is as long as the plane.
// It fails unless c is exactly the coding of len(out) bytes: an incomplete
// or over-subscribed code, a length of 0 or past huffMaxLen, nonzero
// padding, stream lengths past the section, and a stream that does not
// decode to exactly its segment are all errors.
func (d *huffDecoder) decode(out, c []byte) error {
	if len(c) < huffBitmapLen {
		return errHuffHeader
	}
	bitmap, c := c[:huffBitmapLen], c[huffBitmapLen:]
	present := 0
	for _, b := range bitmap {
		present += bits.OnesCount8(b)
	}
	nibs := (present + 1) / 2
	if present == 0 || len(c) < nibs+3*4 {
		return errHuffHeader
	}
	if present&1 != 0 && c[nibs-1]>>4 != 0 {
		return fmt.Errorf("compress: Huffman code-length padding set")
	}
	var lens [256]uint8
	kraft, i, sym := 0, 0, 0
	for s := range 256 {
		if bitmap[s>>3]&(1<<(s&7)) == 0 {
			continue
		}
		l := c[i>>1] >> (4 * (i & 1)) & 15
		if l == 0 || l > huffMaxLen {
			return fmt.Errorf("compress: Huffman code length %d", l)
		}
		lens[s], sym = l, s
		kraft += huffTableSize >> l
		i++
	}
	c = c[nibs:]
	// The streams stay one slice, stream k ending at byte ends[k].
	streams := c[3*4:]
	var ends [4]int
	end := 0
	for k := range 3 {
		n := uint64(binary.LittleEndian.Uint32(c[4*k:]))
		if n > uint64(len(streams)-end) {
			return fmt.Errorf("compress: Huffman stream %d runs past the section", k)
		}
		end += int(n)
		ends[k] = end
	}
	ends[3] = len(streams)
	if present == 1 {
		if lens[sym] != 1 || len(streams) != 0 {
			return fmt.Errorf("compress: single-symbol plane is not a bare length 1")
		}
		for i := range out {
			out[i] = byte(sym)
		}
		return nil
	}
	if kraft != huffTableSize {
		return fmt.Errorf("compress: Huffman code is not complete (Kraft sum %d/%d)", kraft, huffTableSize)
	}
	codes := huffCodes(&lens)
	for s, l := range lens {
		if l == 0 {
			continue
		}
		e := uint16(s)<<4 | uint16(l)
		for j := int(codes[s]); j < huffTableSize; j += 1 << l {
			d.table[j] = e
		}
	}
	return d.decodeStreams(huffSegments(out), streams, ends)
}

// decodeStreams fills the four segments from the streams c holds, stream k
// ending at byte ends[k] and starting where stream k-1 ends. Each stream's
// cursor is a bit position in c. While every cursor can load eight bytes
// and every segment has five symbols to go, the four are decoded in
// lockstep, five symbols a load (57 bits loaded, at most 55 consumed); then
// each stream to its end on its own. A load may look past a stream's end
// into the next: a code's symbol depends on its own bits alone, and the end
// check catches a code that runs past the end.
func (d *huffDecoder) decodeStreams(out [4][]byte, c []byte, ends [4]int) error {
	t := &d.table
	o0, o1, o2, o3 := out[0], out[1], out[2], out[3]
	b0, b1, b2, b3 := uint(0), uint(ends[0])*8, uint(ends[1])*8, uint(ends[2])*8
	i := 0
	if len(c) >= 8 {
		last := uint(len(c)-8) * 8
		for ; i+5 <= len(o3) && b0 <= last && b1 <= last && b2 <= last && b3 <= last; i += 5 {
			v0 := binary.LittleEndian.Uint64(c[b0>>3:]) >> (b0 & 7)
			v1 := binary.LittleEndian.Uint64(c[b1>>3:]) >> (b1 & 7)
			v2 := binary.LittleEndian.Uint64(c[b2>>3:]) >> (b2 & 7)
			v3 := binary.LittleEndian.Uint64(c[b3>>3:]) >> (b3 & 7)
			q0, q1, q2, q3 := o0[i:i+5], o1[i:i+5], o2[i:i+5], o3[i:i+5]
			for j := range 5 {
				e0, e1, e2, e3 := t[v0&(huffTableSize-1)], t[v1&(huffTableSize-1)], t[v2&(huffTableSize-1)], t[v3&(huffTableSize-1)]
				q0[j], q1[j], q2[j], q3[j] = byte(e0>>4), byte(e1>>4), byte(e2>>4), byte(e3>>4)
				v0, v1, v2, v3 = v0>>(e0&15), v1>>(e1&15), v2>>(e2&15), v3>>(e3&15)
				b0, b1, b2, b3 = b0+uint(e0&15), b1+uint(e1&15), b2+uint(e2&15), b3+uint(e3&15)
			}
		}
	}
	if huffTail(t, o0[i:], c[:ends[0]], b0) && huffTail(t, o1[i:], c[:ends[1]], b1) &&
		huffTail(t, o2[i:], c[:ends[2]], b2) && huffTail(t, o3[i:], c, b3) {
		return nil
	}
	return errHuffStream
}

// huffTail decodes out from the stream that ends with s, from bit position
// b of s. It reports whether out filled with the stream consumed exactly:
// no code runs past the end, and what follows the last code is under a
// byte of zeros.
func huffTail(t *[huffTableSize]uint16, out, s []byte, b uint) bool {
	end := uint(len(s)) * 8
	for k := range out {
		var v uint64
		if at := int(b >> 3); at+8 <= len(s) {
			v = binary.LittleEndian.Uint64(s[at:])
		} else {
			for j := at; j < len(s); j++ {
				v |= uint64(s[j]) << (8 * (j - at))
			}
		}
		e := t[(v>>(b&7))&(huffTableSize-1)]
		if b += uint(e & 15); b > end {
			return false
		}
		out[k] = byte(e >> 4)
	}
	return b <= end && end-b < 8 && (b == end || s[len(s)-1]>>(b&7) == 0)
}
