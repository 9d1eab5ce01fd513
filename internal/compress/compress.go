// Package compress implements the payload compression the paper discusses
// in §IV-E-e: "recommendation systems are based on ratings that can take
// very few values (only 10 in the case of MovieLens ...), data sharing in
// this area is also highly compressible." Raw rating triplets are packed
// by the columnar codec (columnar.go: order-preserving bit-packed id
// columns and 4-bit star values), which is what a data frame carries;
// model payloads are coded as word planes (planes.go: exponent bytes
// through a canonical Huffman coder of their own, huffman.go; mantissa
// bytes stored), which is what a model frame carries. DEFLATE (Deflate,
// Inflate) is the general-purpose yardstick beside them: no frame carries
// it, but the benchmark's compress.deflate_* rows measure it and
// TestModelSectionSavingFloor requires a model's word-plane section to
// come out smaller than its DEFLATE.
package compress

import (
	"bytes"
	"compress/flate"
	"fmt"
)

// Deflate compresses an arbitrary payload (model parameters) with DEFLATE
// at the given level (flate.DefaultCompression if 0).
func Deflate(b []byte, level int) ([]byte, error) {
	if level == 0 {
		level = flate.DefaultCompression
	}
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		return nil, fmt.Errorf("compress: flate writer: %w", err)
	}
	if _, err = w.Write(b); err == nil {
		err = w.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("compress: deflate: %w", err)
	}
	return buf.Bytes(), nil
}

// Inflate decompresses Deflate output.
func Inflate(b []byte) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(flate.NewReader(bytes.NewReader(b))); err != nil {
		return nil, fmt.Errorf("compress: inflate: %w", err)
	}
	return buf.Bytes(), nil
}
