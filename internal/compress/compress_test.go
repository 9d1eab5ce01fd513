package compress

import (
	"math"
	"math/rand"
	"testing"
)

func TestDeflateRoundtrip(t *testing.T) {
	data := make([]byte, 10000)
	for i := range data {
		data[i] = byte(i % 17) // compressible
	}
	c, err := Deflate(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) >= len(data) {
		t.Fatalf("deflate grew data: %d -> %d", len(data), len(c))
	}
	got, err := Inflate(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Fatal("inflate mismatch")
	}
}

func TestDeflateModelPayload(t *testing.T) {
	// Model bytes (float32 params) still shrink somewhat under DEFLATE
	// because low-entropy exponent bytes repeat.
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 4000)
	for i := 0; i < len(data); i += 4 {
		v := float32(rng.NormFloat64() * 0.1)
		b := math.Float32bits(v)
		data[i] = byte(b)
		data[i+1] = byte(b >> 8)
		data[i+2] = byte(b >> 16)
		data[i+3] = byte(b >> 24)
	}
	c, err := Deflate(data, 9)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Inflate(c)
	if err != nil || len(got) != len(data) {
		t.Fatalf("inflate: %v", err)
	}
}
