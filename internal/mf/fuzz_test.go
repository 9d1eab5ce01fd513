package mf

import (
	"bytes"
	"math/rand"
	"testing"

	"rex/internal/dataset"
)

// FuzzUnmarshal throws arbitrary bytes at the model deserializer — the
// bytes every model-sharing node accepts from its peers — decoding, as a
// node does, into a receiver that already holds a model. Malformed or
// truncated buffers, record blocks that overrun them, broken id columns
// and the retired v1 encoding (the corpus keeps v1 buffers as rejection
// cases) must produce an error and leave that model untouched, never
// panic; a successful decode must re-marshal to the same canonical bytes.
func FuzzUnmarshal(f *testing.F) {
	cfg := DefaultConfig()
	// Seed corpus: an empty model, a trained model, and a trained model
	// with flipped bytes at structurally interesting offsets.
	empty, _ := New(cfg).Marshal()
	f.Add(empty)
	m := New(cfg)
	m.Train([]dataset.Rating{
		{User: 0, Item: 1, Value: 4}, {User: 2, Item: 5, Value: 1.5}, {User: 7, Item: 1, Value: 3},
	}, 200, rand.New(rand.NewSource(3)))
	good, err := m.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, off := range []int{0, 4, 8, 12, 16, 20, len(good) - 6, len(good) - 1} {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0xff
		f.Add(bad)
	}
	f.Add(good[:len(good)-3]) // truncated
	f.Add([]byte{})

	held := New(cfg)
	held.Train([]dataset.Rating{
		{User: 3, Item: 0, Value: 2}, {User: 1, Item: 9, Value: 5}, {User: 8, Item: 4, Value: 3.5},
		{User: 5, Item: 2, Value: 1}, {User: 11, Item: 7, Value: 4.5},
	}, 300, rand.New(rand.NewSource(4)))
	before, err := held.Marshal()
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		dst := held.Clone().(*Model)
		if err := dst.Unmarshal(b); err != nil {
			// On error the receiver must be untouched: the model it held.
			if after, _ := dst.Marshal(); !bytes.Equal(after, before) {
				t.Fatalf("failed Unmarshal mutated the receiver: %v", err)
			}
			return
		}
		// Canonical roundtrip: a decoded model re-marshals to the exact
		// accepted bytes (minimal gap coding makes this total).
		out, err := dst.Marshal()
		if err != nil {
			t.Fatalf("re-marshal failed: %v", err)
		}
		if !bytes.Equal(out, b) {
			t.Fatalf("roundtrip not canonical: %d in, %d out", len(b), len(out))
		}
	})
}
