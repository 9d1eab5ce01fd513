package mf

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"rex/internal/dataset"
)

// trainedOn returns a model holding exactly the users 0..users-1 (times
// stride) and items 0..items-1, touched in random order, and its canonical
// bytes.
func trainedOn(t testing.TB, seed int64, users, items, stride int) (*Model, []byte) {
	t.Helper()
	var data []dataset.Rating
	for i := 0; i < max(users, items); i++ {
		data = append(data, dataset.Rating{User: uint32(i % users * stride), Item: uint32(i % items), Value: float32(1+i%10) / 2})
	}
	m := New(DefaultConfig())
	m.Train(data, 20*len(data), rand.New(rand.NewSource(seed)))
	if m.users.count() != users || m.items.count() != items {
		t.Fatalf("training touched %d users and %d items, want %d and %d", m.users.count(), m.items.count(), users, items)
	}
	b, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return m, b
}

// sameAsFresh fails unless got is indistinguishable from a new model that
// decoded want: bytes, lazy layout state and every prediction.
func sameAsFresh(t *testing.T, got *Model, want []byte) {
	t.Helper()
	fresh := New(got.cfg)
	if err := fresh.Unmarshal(want); err != nil {
		t.Fatal(err)
	}
	for name, tabs := range map[string][2]*table{"users": {got.users, fresh.users}, "items": {got.items, fresh.items}} {
		g, f := tabs[0], tabs[1]
		if g.maxID != f.maxID || g.orderStale != f.orderStale || g.idx.occupied() != f.idx.occupied() ||
			!slices.Equal(g.order, f.order) || !slices.Equal(g.ids, f.ids) {
			t.Fatalf("%s table differs from a fresh decode: maxID %d/%d stale %v/%v index %d/%d entries",
				name, g.maxID, f.maxID, g.orderStale, f.orderStale, g.idx.occupied(), f.idx.occupied())
		}
	}
	out, err := got.Marshal()
	if err != nil || !bytes.Equal(out, want) {
		t.Fatalf("re-marshal differs from the decoded bytes (%d vs %d bytes, err %v)", len(out), len(want), err)
	}
	for u := uint32(0); u < 400; u += 3 {
		for i := uint32(0); i < 90; i += 7 {
			if g, w := got.Predict(u, i), fresh.Predict(u, i); g != w {
				t.Fatalf("Predict(%d,%d) = %v, a fresh decode gives %v", u, i, g, w)
			}
		}
	}
}

// TestUnmarshalIntoWarmReceiver pins the in-place decode: whatever the
// receiver held — a larger model, a smaller one, one trained in place with
// its id order stale — decoding A into it gives exactly what decoding A
// into a new model gives.
func TestUnmarshalIntoWarmReceiver(t *testing.T) {
	_, a := trainedOn(t, 1, 60, 40, 3)
	_, larger := trainedOn(t, 2, 130, 80, 1)
	_, smaller := trainedOn(t, 3, 7, 5, 11)
	for name, held := range map[string][]byte{"larger": larger, "smaller": smaller} {
		recv := New(DefaultConfig())
		if err := recv.Unmarshal(held); err != nil {
			t.Fatal(err)
		}
		if err := recv.Unmarshal(a); err != nil {
			t.Fatalf("receiver holding a %s model: %v", name, err)
		}
		sameAsFresh(t, recv, a)
		if err := recv.Unmarshal(held); err != nil { // and back
			t.Fatal(err)
		}
		sameAsFresh(t, recv, held)
	}
	trained, _ := trainedOn(t, 4, 90, 20, 2)
	for _, r := range []dataset.Rating{{User: 1001, Item: 71, Value: 3}, {User: 1000, Item: 70, Value: 4}} {
		trained.Train([]dataset.Rating{r}, 5, rand.New(rand.NewSource(4))) // a lower id after a higher one
	}
	if !trained.users.orderStale {
		t.Fatal("test premise broken: out-of-order training left the id order fresh")
	}
	if err := trained.Unmarshal(a); err != nil {
		t.Fatal(err)
	}
	sameAsFresh(t, trained, a)
	empty, _ := New(DefaultConfig()).Marshal()
	if err := trained.Unmarshal(empty); err != nil {
		t.Fatal(err)
	}
	sameAsFresh(t, trained, empty)
}

// corruptions returns one buffer per class of input Unmarshal rejects,
// derived from the canonical bytes of a model with at least two users and
// two items whose first user gap, first item gap and last item gap are one
// byte each.
func corruptions(good []byte, k int) map[string][]byte {
	nu := int(binary.LittleEndian.Uint32(good[8:]))
	ni := int(binary.LittleEndian.Uint32(good[12:]))
	block := 16 + 4*(k+1)*(nu+ni)
	// Walk the id columns: where the item column and its last uvarint
	// start, and the item id before the last.
	var firstItem, lastItem, prevItem int
	off, id := block, -1
	for i := 0; i < nu+ni; i++ {
		if i == nu {
			firstItem, id = off, -1
		}
		if i == nu+ni-1 {
			lastItem, prevItem = off, id
		}
		gap, w := binary.Uvarint(good[off:])
		off, id = off+w, id+1+int(gap)
	}
	edit := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	// splice replaces n bytes at off.
	splice := func(off, n int, with ...byte) []byte {
		return append(append(append([]byte(nil), good[:off]...), with...), good[off+n:]...)
	}
	return map[string][]byte{
		"short":                         good[:12],
		"bad magic":                     edit(func(b []byte) { b[0] ^= 0xff }),
		"retired v1 magic":              edit(func(b []byte) { binary.LittleEndian.PutUint32(b, magicV1) }),
		"K mismatch":                    edit(func(b []byte) { binary.LittleEndian.PutUint32(b[4:], uint32(k+1)) }),
		"truncated":                     good[:len(good)-3],
		"record block past the buffer":  edit(func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 1<<30) }),
		"one row too many":              edit(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], uint32(nu+1)) }),
		"overlong user id":              splice(block, 1, good[block]|0x80, 0x00),
		"overlong item id":              splice(firstItem, 1, good[firstItem]|0x80, 0x00),
		"uvarint past 64 bits":          splice(block, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01),
		"user id past maxEntityID":      splice(block, 1, binary.AppendUvarint(nil, maxEntityID+1)...),
		"item id just past maxEntityID": splice(lastItem, len(good)-lastItem, binary.AppendUvarint(nil, uint64(maxEntityID-prevItem))...),
		// A two-byte first id keeps one byte per row in the buffer, so the
		// column, not the size check, runs short.
		"id column one byte short": splice(block, 1, 0xc8, 0x01)[:len(good)],
		"id column unterminated":   edit(func(b []byte) { b[len(b)-1] |= 0x80 }),
		"an extra id":              append(append([]byte(nil), good...), 0x85, 0x01),
		"trailing byte":            append(append([]byte(nil), good...), 0x00),
	}
}

// TestFailedUnmarshalLeavesWarmReceiver checks "on error the receiver is
// unchanged" where it costs something: on a receiver that holds a model and
// is overwritten in place. A rejection found in the item section comes
// after the user section was read.
func TestFailedUnmarshalLeavesWarmReceiver(t *testing.T) {
	_, good := trainedOn(t, 5, 12, 9, 2)
	recv, before := trainedOn(t, 6, 30, 25, 1)
	for name, bad := range corruptions(good, recv.cfg.K) {
		if err := recv.Unmarshal(bad); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		after, err := recv.Marshal()
		if err != nil || !bytes.Equal(after, before) {
			t.Fatalf("%s: the rejected buffer changed the receiver (err %v)", name, err)
		}
	}
	if err := recv.Unmarshal(good); err != nil {
		t.Fatal(err)
	}
	sameAsFresh(t, recv, good)
}

// TestUnmarshalWarmDoesNotAllocate is the point of decoding in place: a
// receiver that has held a model of this size decodes the next one into
// the same arrays.
func TestUnmarshalWarmDoesNotAllocate(t *testing.T) {
	_, a := trainedOn(t, 7, 200, 150, 1)
	_, b := trainedOn(t, 8, 200, 150, 2) // as many rows, other ids
	recv := New(DefaultConfig())
	if err := recv.Unmarshal(a); err != nil {
		t.Fatal(err)
	}
	last, next := a, b
	if n := testing.AllocsPerRun(50, func() {
		last, next = next, last
		if err := recv.Unmarshal(last); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Unmarshal into a warm receiver allocates %.0f objects", n)
	}
	sameAsFresh(t, recv, last)
}
