// Package compress implements the payload compression the paper discusses
// in §IV-E-e: "recommendation systems are based on ratings that can take
// very few values (only 10 in the case of MovieLens ...), data sharing in
// this area is also highly compressible." Raw rating triplets are packed
// with sorted delta-varint ids and 4-bit star values (the live wire's
// columnar codec is in columnar.go); model payloads are coded as word
// planes (planes.go: Huffman-coded exponent bytes, stored mantissa bytes),
// which is what a model frame carries. DEFLATE (Deflater, Inflater) is the
// entropy coder under the planes and the general-purpose yardstick beside
// them. All are evaluated by the ext-compression experiment.
package compress

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"rex/internal/dataset"
)

// starToNibble maps the ten MovieLens star levels (0.5..5.0 step 0.5) to
// 0..9; out-of-grid values get the escape nibble 15 and ride as float32.
// The range is checked before any float-to-int conversion: converting a
// NaN, infinity or huge float to int is implementation-defined in Go, so
// the old `int(doubled)` probe could not be trusted to classify them.
func starToNibble(v float32) (byte, bool) {
	doubled := float64(v) * 2 // float64 holds any float32*2 exactly
	if !(doubled >= 1 && doubled <= 10) || doubled != math.Trunc(doubled) {
		return 15, false // off-grid, NaN or infinite: escape to float32
	}
	return byte(int(doubled) - 1), true // 0.5 -> 0, 5.0 -> 9
}

func nibbleToStar(n byte) float32 { return float32(n+1) / 2 }

// PackRatings compresses rating triplets: ratings are sorted by (user,
// item); user ids and within-user item ids are delta-varint coded; values
// are 4-bit star levels. Typical output is ~4-6 bytes per rating versus
// the 12-byte raw wire format.
//
// Off-grid values (anything but 0.5..5.0 in 0.5 steps — including NaN and
// infinities) do not round-trip through the nibble grid: they are encoded
// explicitly with the escape nibble 15 plus a trailing float32, so
// UnpackRatings reproduces every input value bit for bit, never a
// silently-quantized one.
func PackRatings(rs []dataset.Rating) []byte {
	sorted := make([]dataset.Rating, len(rs))
	copy(sorted, rs)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].User != sorted[j].User {
			return sorted[i].User < sorted[j].User
		}
		return sorted[i].Item < sorted[j].Item
	})

	var buf bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
	}
	putUvarint(uint64(len(sorted)))

	var nibbles []byte
	var escapes []float32
	prevUser := uint64(0)
	prevItem := uint64(0)
	for i, r := range sorted {
		u := uint64(r.User)
		if i == 0 || u != prevUser {
			// New user: emit (delta+1) so 0 can mean "same user".
			putUvarint(u - prevUser + 1)
			prevItem = 0
			prevUser = u
		} else {
			putUvarint(0)
		}
		putUvarint(uint64(r.Item) - prevItem)
		prevItem = uint64(r.Item) + 1
		nb, ok := starToNibble(r.Value)
		nibbles = append(nibbles, nb)
		if !ok {
			escapes = append(escapes, r.Value)
		}
	}
	// Nibble block, two values per byte.
	for i := 0; i < len(nibbles); i += 2 {
		b := nibbles[i] << 4
		if i+1 < len(nibbles) {
			b |= nibbles[i+1]
		}
		buf.WriteByte(b)
	}
	for _, v := range escapes {
		var f [4]byte
		binary.LittleEndian.PutUint32(f[:], math.Float32bits(v))
		buf.Write(f[:])
	}
	return buf.Bytes()
}

// UnpackRatings inverts PackRatings. The output order is the canonical
// sorted order, which is fine for REX: the receiving store deduplicates by
// key and training samples uniformly.
func UnpackRatings(b []byte) ([]dataset.Rating, error) {
	r := bytes.NewReader(b)
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("compress: count: %w", err)
	}
	if count > uint64(len(b))*8 {
		return nil, fmt.Errorf("compress: implausible count %d", count)
	}
	out := make([]dataset.Rating, count)
	prevUser := uint64(0)
	prevItem := uint64(0)
	started := false
	for i := range out {
		du, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("compress: user delta: %w", err)
		}
		if du != 0 || !started {
			if du == 0 {
				return nil, fmt.Errorf("compress: first record lacks user delta")
			}
			prevUser += du - 1
			prevItem = 0
			started = true
		}
		di, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("compress: item delta: %w", err)
		}
		item := prevItem + di
		prevItem = item + 1
		out[i] = dataset.Rating{User: uint32(prevUser), Item: uint32(item)}
	}
	// Nibble block.
	nibbleBytes := (int(count) + 1) / 2
	nb := make([]byte, nibbleBytes)
	if _, err := io.ReadFull(r, nb); err != nil {
		return nil, fmt.Errorf("compress: nibbles: %w", err)
	}
	var escapeIdx []int
	for i := range out {
		v := nb[i/2]
		if i%2 == 0 {
			v >>= 4
		} else {
			v &= 0x0F
		}
		if v == 15 {
			escapeIdx = append(escapeIdx, i)
			continue
		}
		if v > 9 {
			return nil, fmt.Errorf("compress: bad star nibble %d", v)
		}
		out[i].Value = nibbleToStar(v)
	}
	for _, i := range escapeIdx {
		var f [4]byte
		if _, err := io.ReadFull(r, f[:]); err != nil {
			return nil, fmt.Errorf("compress: escape value: %w", err)
		}
		out[i].Value = math.Float32frombits(binary.LittleEndian.Uint32(f[:]))
	}
	return out, nil
}

// Deflater is a reusable DEFLATE compressor: it holds one flate.Writer
// (~780 KB of window and hash state) and resets it per call, so a caller
// that compresses every epoch pays for that state once. The zero value
// compresses at flate.DefaultCompression. Not safe for concurrent use.
type Deflater struct {
	// Level is the flate level (flate.DefaultCompression if 0); it is read
	// by the first Append only.
	Level int

	w    *flate.Writer
	sink appendWriter
}

// appendWriter is the io.Writer a Deflater's flate.Writer is bound to: it
// appends to whichever slice the current call supplied.
type appendWriter struct{ b []byte }

func (w *appendWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// Append compresses b — one Write and one Close, so the stream does not
// depend on who holds the Deflater — appending the result to dst.
func (d *Deflater) Append(dst, b []byte) ([]byte, error) {
	d.sink.b = dst
	if d.w == nil {
		level := d.Level
		if level == 0 {
			level = flate.DefaultCompression
		}
		w, err := flate.NewWriter(&d.sink, level)
		if err != nil {
			return nil, fmt.Errorf("compress: flate writer: %w", err)
		}
		d.w = w
	} else {
		d.w.Reset(&d.sink)
	}
	_, err := d.w.Write(b)
	if err == nil {
		err = d.w.Close()
	}
	dst, d.sink.b = d.sink.b, nil
	if err != nil {
		return nil, fmt.Errorf("compress: deflate: %w", err)
	}
	return dst, nil
}

// Deflate compresses an arbitrary payload (model parameters) with DEFLATE
// at the given level (flate.DefaultCompression if 0).
func Deflate(b []byte, level int) ([]byte, error) {
	d := Deflater{Level: level}
	return d.Append(nil, b)
}

// Inflater is a reusable DEFLATE decompressor: one flate reader, reset per
// call (onto the Inflater's own source reader, so an Inflater that moved —
// in a slice that grew — stays valid). The zero value is ready. Not safe
// for concurrent use.
type Inflater struct {
	src bytes.Reader
	r   io.ReadCloser // a flate reader; also a flate.Resetter
}

// Append decompresses b, appending the plaintext to dst, and fails once
// the plaintext would pass max bytes — so a hostile or corrupt section
// cannot expand into an unbounded allocation before validation rejects it.
// It never asks the stream for more than max+1 bytes; dst grows by
// append's geometric rule, and only while it holds no more than max.
func (z *Inflater) Append(dst, b []byte, max int) ([]byte, error) {
	z.src.Reset(b)
	if z.r == nil {
		z.r = flate.NewReader(&z.src)
	} else if err := z.r.(flate.Resetter).Reset(&z.src, nil); err != nil {
		return nil, fmt.Errorf("compress: inflate: %w", err)
	}
	start := len(dst)
	for eof := false; ; {
		n := len(dst) - start
		if n > max {
			return nil, fmt.Errorf("compress: inflated payload exceeds %d bytes", max)
		}
		if eof {
			return dst, nil
		}
		if len(dst) == cap(dst) {
			dst = append(dst[:cap(dst)], 0)[:len(dst)]
		}
		room := cap(dst) - len(dst)
		if room > max-n {
			room = max - n + 1 // the byte past the limit is the proof of an overrun
		}
		m, err := z.r.Read(dst[len(dst) : len(dst)+room])
		dst = dst[:len(dst)+m]
		if err == io.EOF {
			eof = true
		} else if err != nil {
			return nil, fmt.Errorf("compress: inflate: %w", err)
		}
	}
}

// Inflate decompresses Deflate output.
func Inflate(b []byte) ([]byte, error) {
	var z Inflater
	return z.Append(nil, b, math.MaxInt)
}
