package compress

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Word planes: the lossless coding of a model payload. The payload is read
// as little-endian 32-bit words, which is what a marshaled model almost
// entirely is whatever its kind: a few small integers, then float32
// parameters — and for an MF model a short tail of gap-coded ids, about a
// byte per row, which the planes carry like any other bytes. Each word is
// rotated left by one bit, so an IEEE-754 float's eight exponent bits fill
// the top byte and its sign drops to the lowest bit, and the words are split
// into four byte planes. The two low planes are mantissa bits, which nothing
// compresses: they are stored as they are. The two high planes — exponents,
// which take a handful of values in a trained model, and the top mantissa
// bits, which are zero in every small integer — each go through a canonical
// Huffman coder of their own (huffman.go: no match search, which finds
// nothing in parameters, and one 11-bit table lookup per byte to decode),
// each kept only when it comes out smaller than the plane.
//
//	[flags][uvarint n][plane 0: n/4 bytes][plane 1: n/4 bytes][tail: n%4 bytes][plane 2][plane 3]
//
// flags bit 0 says plane 2 is coded, bit 1 plane 3; a coded plane is
// [u32 length][Huffman-coded plane], a stored one its n/4 bytes.
const (
	planeCoded2 byte = 1 << iota
	planeCoded3

	planeFlagsKnown = planeCoded2 | planeCoded3
)

// planeHeaderMax bounds everything a PlaneEncoder writes besides the
// payload's own bytes: flags, length, and the two coded-plane lengths.
const planeHeaderMax = 1 + binary.MaxVarintLen64 + 2*4

// reserve returns dst able to take n more bytes: dst itself when it has the
// room, else a copy in a buffer with an eighth of n to spare, so a caller
// whose payloads creep up in size does not reallocate on every one.
func reserve(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst
	}
	return append(make([]byte, 0, len(dst)+n+n/8), dst...)
}

// PlaneEncoder is a reusable word-plane encoder: one Huffman coder, whose
// tables the first Append allocates, and the scratch the two high planes are
// gathered into. The zero value is ready. Not safe for concurrent use.
type PlaneEncoder struct {
	h  *huffEncoder
	hi [2][]byte
}

// Append encodes b as word planes, appending to dst. The output is never
// more than planeHeaderMax bytes longer than b, and decodes to exactly b
// whatever b holds.
func (e *PlaneEncoder) Append(dst, b []byte) []byte {
	if e.h == nil {
		e.h = new(huffEncoder)
	}
	words := len(b) / 4
	// Eight bytes to spare: the Huffman coder stores its bit accumulator
	// whole.
	dst = reserve(dst, planeHeaderMax+len(b)+8)
	flagAt := len(dst)
	dst = append(dst, 0)
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	at := len(dst)
	dst = dst[:at+2*words]
	p0, p1 := dst[at:at+words], dst[at+words:at+2*words]
	p2, p3 := reserve(e.hi[0][:0], words)[:words], reserve(e.hi[1][:0], words)[:words]
	e.hi[0], e.hi[1] = p2, p3
	for i := range p0 {
		w := bits.RotateLeft32(binary.LittleEndian.Uint32(b[4*i:]), 1)
		p0[i], p1[i], p2[i], p3[i] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
	}
	dst = append(dst, b[4*words:]...)
	for i, p := range e.hi {
		if coded := e.h.plan(p); coded+4 < words {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(coded))
			dst = e.h.append(dst, p)
			dst[flagAt] |= planeCoded2 << i
		} else {
			dst = append(dst, p...)
		}
	}
	return dst
}

// PlaneDecoder is a reusable word-plane decoder: one Huffman decode table,
// which the first coded plane allocates, and the scratch coded planes are
// decoded into. The zero value is ready. Not safe for concurrent use.
type PlaneDecoder struct {
	h  *huffDecoder
	hi [2][]byte
}

// Append decodes a PlaneEncoder's output, appending the payload to dst,
// and fails if the payload would pass max bytes. b comes off the wire:
// the declared length is checked against max and against the bytes b can
// supply before any buffer is sized to it, so the decoder's scratch never
// exceeds half of len(b) and dst grows by at most min(max, 2·len(b)) bytes,
// each with reserve's eighth to spare; a coded plane that is not exactly
// the coding of n/4 bytes (see huffDecoder.decode), unknown flags and
// trailing bytes are errors.
// Stored planes are read in place.
func (d *PlaneDecoder) Append(dst, b []byte, max int) ([]byte, error) {
	if len(b) < 2 || b[0]&^planeFlagsKnown != 0 {
		return nil, fmt.Errorf("compress: bad word-plane header")
	}
	flags := b[0]
	n, k := binary.Uvarint(b[1:])
	if k <= 0 {
		return nil, fmt.Errorf("compress: bad word-plane length")
	}
	if max < 0 || n > uint64(max) {
		return nil, fmt.Errorf("compress: word-plane payload of %d bytes exceeds %d", n, max)
	}
	rest := b[1+k:]
	words, tail := int(n/4), int(n%4)
	if len(rest) < 2*words+tail {
		return nil, fmt.Errorf("compress: %d bytes cannot hold the stored planes of a %d-byte payload", len(rest), n)
	}
	p0, p1 := rest[:words], rest[words:2*words]
	tailBytes := rest[2*words : 2*words+tail]
	rest = rest[2*words+tail:]
	var hi [2][]byte
	for i := range hi {
		if flags&(planeCoded2<<i) == 0 {
			if len(rest) < words {
				return nil, fmt.Errorf("compress: word plane %d truncated", 2+i)
			}
			hi[i], rest = rest[:words], rest[words:]
			continue
		}
		if len(rest) < 4 {
			return nil, fmt.Errorf("compress: coded word plane %d truncated", 2+i)
		}
		cl := uint64(binary.LittleEndian.Uint32(rest))
		if rest = rest[4:]; cl > uint64(len(rest)) {
			return nil, fmt.Errorf("compress: coded word plane %d truncated", 2+i)
		}
		coded := rest[:cl]
		rest = rest[cl:]
		p := reserve(d.hi[i][:0], words)[:words]
		d.hi[i] = p
		if d.h == nil {
			d.h = new(huffDecoder)
		}
		if err := d.h.decode(p, coded); err != nil {
			return nil, fmt.Errorf("compress: word plane %d: %w", 2+i, err)
		}
		hi[i] = p
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("compress: %d trailing bytes after the word planes", len(rest))
	}
	dst = reserve(dst, int(n))
	at := len(dst)
	dst = dst[:at+4*words]
	out, p2, p3 := dst[at:], hi[0][:words], hi[1][:words]
	for i := range p0 {
		w := uint32(p0[i]) | uint32(p1[i])<<8 | uint32(p2[i])<<16 | uint32(p3[i])<<24
		binary.LittleEndian.PutUint32(out[4*i:], bits.RotateLeft32(w, -1))
	}
	return append(dst, tailBytes...), nil
}
