// Package compress implements the payload compression the paper discusses
// in §IV-E-e: "recommendation systems are based on ratings that can take
// very few values (only 10 in the case of MovieLens ...), data sharing in
// this area is also highly compressible." Raw rating triplets are packed
// by the columnar codec (columnar.go: order-preserving bit-packed id
// columns and 4-bit star values), which is what a data frame carries;
// model payloads are coded as word planes (planes.go: Huffman-coded
// exponent bytes, stored mantissa bytes), which is what a model frame
// carries. DEFLATE (Deflater, Inflater) is the entropy coder under the
// planes and the general-purpose yardstick beside them. All are evaluated
// by the ext-compression experiment.
package compress

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"math"
)

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
