package dataset

import (
	"encoding/binary"
	"fmt"
	"math"
)

// EncodeRatings serializes ratings into the compact 12-byte-per-triplet wire
// format exchanged between REX nodes: little-endian uint32 user, uint32
// item, float32 value, preceded by a uint32 count.
func EncodeRatings(rs []Rating) []byte {
	return EncodeRatingsAppend(make([]byte, 0, 4+len(rs)*EncodedSize), rs)
}

// EncodeRatingsAppend appends the EncodeRatings serialization to dst and
// returns the extended slice, letting share-path callers reuse one buffer
// across epochs instead of allocating per payload.
func EncodeRatingsAppend(dst []byte, rs []Rating) []byte {
	off := len(dst)
	dst = append(dst, make([]byte, 4+len(rs)*EncodedSize)...)
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(rs)))
	off += 4
	for _, r := range rs {
		binary.LittleEndian.PutUint32(dst[off:], r.User)
		binary.LittleEndian.PutUint32(dst[off+4:], r.Item)
		binary.LittleEndian.PutUint32(dst[off+8:], math.Float32bits(r.Value))
		off += EncodedSize
	}
	return dst
}

// DecodeRatings parses the format produced by EncodeRatings and returns the
// ratings along with the number of bytes consumed.
func DecodeRatings(buf []byte) ([]Rating, int, error) {
	if len(buf) < 4 {
		return nil, 0, fmt.Errorf("dataset: short buffer %d", len(buf))
	}
	// Compared unconverted: on a 32-bit platform int(count) can be negative.
	count := binary.LittleEndian.Uint32(buf)
	if uint64(count) > uint64(len(buf)-4)/EncodedSize {
		return nil, 0, fmt.Errorf("dataset: buffer %d too short for %d ratings", len(buf), count)
	}
	n := int(count)
	need := 4 + n*EncodedSize
	rs := make([]Rating, n)
	off := 4
	for i := 0; i < n; i++ {
		rs[i] = Rating{
			User:  binary.LittleEndian.Uint32(buf[off:]),
			Item:  binary.LittleEndian.Uint32(buf[off+4:]),
			Value: math.Float32frombits(binary.LittleEndian.Uint32(buf[off+8:])),
		}
		off += EncodedSize
	}
	return rs, need, nil
}
