package runtime

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"rex/internal/compress"
	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
	"rex/internal/nn"
	"rex/internal/seccha"
)

// newDeltaPair builds two bare runners wired as mutual neighbors (ids 0
// and 1) with delta streams initialized, so tests can drive
// encodeDeltaBody / decodeDeltaFrame directly without a transport.
func newDeltaPair() (a, b *runner) {
	newModel := func() model.Model { return mf.New(mf.DefaultConfig()) }
	a = newRunner(Config{Neighbors: []int{1}, NewModel: newModel}, false)
	b = newRunner(Config{Neighbors: []int{0}, NewModel: newModel}, false)
	return a, b
}

// ship encodes a payload on from (addressed to peer `nb`) and decodes it
// on to (as sender `nb`'s counterpart), failing the test on either error.
func ship(t *testing.T, from, to *runner, fromID, toID int, p core.Payload) (core.Payload, deltaSendStats) {
	t.Helper()
	body, st := from.encodeDeltaBody(nil, toID, p)
	got, err := to.decodeDeltaFrame(0, fromID, body)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got, st
}

func sortedRatings(rs []dataset.Rating) []dataset.Rating {
	out := append([]dataset.Rating(nil), rs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

func sameMultiset(t *testing.T, got, want []dataset.Rating) {
	t.Helper()
	g, w := sortedRatings(got), sortedRatings(want)
	if len(g) != len(w) {
		t.Fatalf("got %d ratings, want %d", len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("rating %d: got %+v want %+v", i, g[i], w[i])
		}
	}
}

func sampleRatings(n int, seed int64) []dataset.Rating {
	rng := rand.New(rand.NewSource(seed))
	out := make([]dataset.Rating, n)
	for i := range out {
		out[i] = dataset.Rating{
			User:  uint32(rng.Intn(200)),
			Item:  uint32(i), // distinct keys
			Value: float32(rng.Intn(9)+2) / 2,
		}
	}
	return out
}

// TestModelSectionSavingFloor holds the word planes' reason to exist: on a
// trained MF model of at least 2,000 rows the section is at most 0.86 of
// the marshaled bytes, and smaller than default-level DEFLATE makes them
// (0.92, at 35–60× the time). Bytes are deterministic per seed.
func TestModelSectionSavingFloor(t *testing.T) {
	spec := movielens.Latest().Scaled(0.5)
	spec.Seed = 33
	m := mf.New(mf.DefaultConfig())
	m.Train(movielens.Generate(spec).Ratings, 40000, rand.New(rand.NewSource(33)))
	a, _ := newDeltaPair()
	section, raw := planeSection(t, a, m)
	// The marshaled header counts the user rows and the item rows.
	rows := binary.LittleEndian.Uint32(raw[8:]) + binary.LittleEndian.Uint32(raw[12:])
	if rows < 2000 {
		t.Fatalf("test premise broken: the model has %d rows", rows)
	}
	deflated, err := compress.Deflate(raw, 0)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(len(section)) / float64(len(raw))
	t.Logf("%d rows, %d B marshaled: word planes %.3f, DEFLATE %.3f", rows, len(raw), ratio, float64(len(deflated))/float64(len(raw)))
	if section[0] != sectionPlanes || ratio > 0.86 || len(section) >= len(deflated) {
		t.Fatalf("model section %d B (form %d), DEFLATE %d B, marshaled %d B", len(section), section[0], len(deflated), len(raw))
	}
}

// TestDeltaRefRoundtrip drives the happy path: first send all-explicit,
// an ack riding an empty reverse frame, then a resend as pure
// back-references and a value change forcing a single re-explicit entry.
func TestDeltaRefRoundtrip(t *testing.T) {
	a, b := newDeltaPair()
	s := sampleRatings(12, 1)

	got, st := ship(t, a, b, 0, 1, core.Payload{From: 0, Degree: 1, Data: s})
	if st.explicit != 12 || st.refs != 0 {
		t.Fatalf("first frame: explicit=%d refs=%d", st.explicit, st.refs)
	}
	sameMultiset(t, got.Data, s)

	// Reverse empty frame carries the ack for seq 1.
	if _, _ = ship(t, b, a, 1, 0, core.Payload{From: 1, Degree: 1}); a.tx[1].ackedSeq != 1 {
		t.Fatalf("ackedSeq = %d, want 1", a.tx[1].ackedSeq)
	}

	got, st = ship(t, a, b, 0, 1, core.Payload{From: 0, Degree: 1, Data: s})
	if st.explicit != 0 || st.refs != 12 {
		t.Fatalf("resend: explicit=%d refs=%d", st.explicit, st.refs)
	}
	// References sort by dictionary index = insertion order, so the
	// reconstruction preserves the original sample order exactly.
	for i := range s {
		if got.Data[i] != s[i] {
			t.Fatalf("resend order drifted at %d: %+v != %+v", i, got.Data[i], s[i])
		}
	}

	s2 := append([]dataset.Rating(nil), s...)
	s2[5].Value += 0.5
	got, st = ship(t, a, b, 0, 1, core.Payload{From: 0, Degree: 1, Data: s2})
	if st.explicit != 1 || st.refs != 11 {
		t.Fatalf("value change: explicit=%d refs=%d", st.explicit, st.refs)
	}
	sameMultiset(t, got.Data, s2)
}

// TestRetiredFrameKindIgnored pins frame kind 2, once the flat gossip
// encoding and now retired: a neighbor's kind-2 frame (a well-formed flat
// payload, as that encoding carried it) and a frame of a kind never
// assigned, reaching a node while its round waits on that neighbor, are
// neither merged nor fatal, and the round completes on the neighbor's next
// delta frame.
func TestRetiredFrameKindIgnored(t *testing.T) {
	eps := NewChanNet(2)
	defer eps[0].Close()
	defer eps[1].Close()
	newModel := func() model.Model { return mf.New(mf.DefaultConfig()) }
	// The timeout only bounds a failure: a round the delta frame does not
	// complete fails the test instead of hanging it.
	a := newRunner(Config{Endpoint: eps[0], Neighbors: []int{1}, NewModel: newModel, RoundTimeout: time.Minute}, false)
	b := newRunner(Config{Neighbors: []int{0}, NewModel: newModel}, false)
	s := sampleRatings(8, 5)
	p := core.Payload{From: 1, Degree: 1, Data: s}
	flat, err := EncodePayloadAppend(nil, p)
	if err != nil {
		t.Fatal(err)
	}
	delta, _ := b.encodeDeltaBody([]byte{kindGossipDelta}, 0, p)

	type round struct {
		pls []core.Payload
		err error
	}
	done := make(chan round, 1)
	go func() {
		pls, err := a.gatherRound(1)
		done <- round{pls, err}
	}()
	for _, frame := range [][]byte{append([]byte{2}, flat...), append([]byte{7}, flat...), delta} {
		if err := eps[1].Send(0, frame); err != nil {
			t.Fatal(err)
		}
	}
	got := <-done
	if got.err != nil {
		t.Fatalf("round failed: %v", got.err)
	}
	if len(got.pls) != 1 || got.pls[0].From != 1 {
		t.Fatalf("round gathered %d payloads, want the delta frame's alone", len(got.pls))
	}
	sameMultiset(t, got.pls[0].Data, s)
	if a.stats.BytesIn != int64(len(delta)-1) || a.rx[1].watermark != 1 || a.pendingN != 0 || a.stats.PeersLost != 0 {
		t.Fatalf("bytes in %d (delta frame %d), watermark %d, %d frames pending, %d peers lost",
			a.stats.BytesIn, len(delta)-1, a.rx[1].watermark, a.pendingN, a.stats.PeersLost)
	}
}

// TestDeltaDuplicateAndReorder checks the faultnet-visible cases: an
// adjacent swap decodes both frames and leaves no gap, and a duplicate
// reconstructs identically without recommitting.
func TestDeltaDuplicateAndReorder(t *testing.T) {
	a, b := newDeltaPair()
	s1, s2, s3 := sampleRatings(6, 1), sampleRatings(6, 2), sampleRatings(6, 3)

	ship(t, a, b, 0, 1, core.Payload{From: 0, Degree: 1, Data: s1})
	body2, _ := a.encodeDeltaBody(nil, 1, core.Payload{From: 0, Degree: 1, Data: s2})
	body3, _ := a.encodeDeltaBody(nil, 1, core.Payload{From: 0, Degree: 1, Data: s3})

	// A decoded payload aliases the peer's decode scratch: check each one
	// before the next frame is decoded.
	p3, err := b.decodeDeltaFrame(0, 0, body3)
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, p3.Data, s3)
	p2, err := b.decodeDeltaFrame(0, 0, body2)
	if err != nil {
		t.Fatal(err)
	}
	sameMultiset(t, p2.Data, s2)
	rx := b.rx[0]
	if rx.watermark != 3 || rx.wantResync {
		t.Fatalf("after swap: watermark=%d wantResync=%v", rx.watermark, rx.wantResync)
	}

	dup, err := b.decodeDeltaFrame(0, 0, body2)
	if err != nil {
		t.Fatalf("duplicate rejected: %v", err)
	}
	sameMultiset(t, dup.Data, s2)
	if rx.watermark != 3 || len(rx.dict) != 18 {
		t.Fatalf("duplicate mutated stream: watermark=%d dict=%d", rx.watermark, len(rx.dict))
	}
}

// TestDeltaGapResync loses three frames in a row and checks the full
// recovery loop: gap -> resync request piggybacked on the reverse frame ->
// stream reset -> references work again on the rebased dictionary.
func TestDeltaGapResync(t *testing.T) {
	a, b := newDeltaPair()
	s := sampleRatings(8, 4)

	ship(t, a, b, 0, 1, core.Payload{From: 0, Degree: 1, Data: s})
	for i := 0; i < 3; i++ { // frames 2..4 lost: encoded, never delivered
		a.encodeDeltaBody(nil, 1, core.Payload{From: 0, Degree: 1, Data: s})
	}
	ship(t, a, b, 0, 1, core.Payload{From: 0, Degree: 1, Data: s})
	if rx := b.rx[0]; !rx.wantResync || rx.watermark != 1 || rx.highSeen != 5 {
		t.Fatalf("gap not detected: %+v", rx)
	}

	// B's next outbound frame carries the request; A arms a reset.
	ship(t, b, a, 1, 0, core.Payload{From: 1, Degree: 1})
	if !a.tx[1].pendingReset {
		t.Fatal("resync request did not arm a reset")
	}

	got, st := ship(t, a, b, 0, 1, core.Payload{From: 0, Degree: 1, Data: s})
	if !st.resync || st.explicit != 8 {
		t.Fatalf("reset frame: resync=%v explicit=%d", st.resync, st.explicit)
	}
	sameMultiset(t, got.Data, s)
	rx := b.rx[0]
	if rx.base != 6 || rx.watermark != 6 || rx.wantResync {
		t.Fatalf("rebase failed: base=%d watermark=%d wantResync=%v", rx.base, rx.watermark, rx.wantResync)
	}

	// Ack the reset, then the stream back-references against the new base.
	ship(t, b, a, 1, 0, core.Payload{From: 1, Degree: 1})
	_, st = ship(t, a, b, 0, 1, core.Payload{From: 0, Degree: 1, Data: s})
	if st.refs != 8 || st.explicit != 0 {
		t.Fatalf("post-reset refs: explicit=%d refs=%d", st.explicit, st.refs)
	}
}

// TestDeltaStalePreResetFrame delays a reference-carrying frame across a
// stream reset (the adjacent-swap-around-reset case): it must still
// resolve against the archived window and merge, without committing.
func TestDeltaStalePreResetFrame(t *testing.T) {
	a, b := newDeltaPair()
	s := sampleRatings(5, 7)

	ship(t, a, b, 0, 1, core.Payload{From: 0, Degree: 1, Data: s})
	ship(t, b, a, 1, 0, core.Payload{From: 1, Degree: 1}) // ack seq 1

	// Frame 2 references the old dictionary but is held back.
	held, st := a.encodeDeltaBody(nil, 1, core.Payload{From: 0, Degree: 1, Data: s})
	if st.refs != 5 {
		t.Fatalf("held frame refs=%d", st.refs)
	}
	// Frame 3 is a reset that overtakes it.
	a.tx[1].pendingReset = true
	ship(t, a, b, 0, 1, core.Payload{From: 0, Degree: 1, Data: s})
	rx := b.rx[0]
	if rx.base != 3 || rx.watermark != 3 {
		t.Fatalf("rebase: base=%d watermark=%d", rx.base, rx.watermark)
	}

	p, err := b.decodeDeltaFrame(0, 0, held)
	if err != nil {
		t.Fatalf("stale frame rejected: %v", err)
	}
	sameMultiset(t, p.Data, s)
	if rx.watermark != 3 || len(rx.dict) != 5 {
		t.Fatalf("stale frame mutated stream: watermark=%d dict=%d", rx.watermark, len(rx.dict))
	}
}

// TestDeltaChecksumDiscard corrupts the payload checksum and checks the
// frame is discarded without mutating the stream — then the intact copy
// of the same frame still commits.
func TestDeltaChecksumDiscard(t *testing.T) {
	a, b := newDeltaPair()
	s := sampleRatings(6, 9)

	ship(t, a, b, 0, 1, core.Payload{From: 0, Degree: 1, Data: s})
	body, _ := a.encodeDeltaBody(nil, 1, core.Payload{From: 0, Degree: 1, Data: s})
	bad := append([]byte(nil), body...)
	bad[len(bad)-1] ^= 0xff
	if _, err := b.decodeDeltaFrame(0, 0, bad); !errors.Is(err, errDeltaDiscard) {
		t.Fatalf("corrupt checksum: err=%v", err)
	}
	rx := b.rx[0]
	if rx.watermark != 1 || !rx.wantResync {
		t.Fatalf("discard state: watermark=%d wantResync=%v", rx.watermark, rx.wantResync)
	}
	if _, err := b.decodeDeltaFrame(0, 0, body); err != nil {
		t.Fatalf("intact redelivery rejected: %v", err)
	}
	if rx.watermark != 2 {
		t.Fatalf("intact redelivery did not commit: watermark=%d", rx.watermark)
	}
}

// TestDeltaRejectWithoutMutation feeds malformed bodies (truncations and
// bit flips of a valid frame) and checks no rejected byte string moves
// the stream state.
func TestDeltaRejectWithoutMutation(t *testing.T) {
	a, b := newDeltaPair()
	s := sampleRatings(6, 11)
	ship(t, a, b, 0, 1, core.Payload{From: 0, Degree: 1, Data: s})
	body, _ := a.encodeDeltaBody(nil, 1, core.Payload{From: 0, Degree: 1, Data: s})

	rx := b.rx[0]
	snap := func() (uint64, uint64, uint64, int, int) {
		return rx.base, rx.watermark, rx.highSeen, len(rx.dict), len(rx.segs)
	}
	b0, w0, h0, d0, g0 := snap()
	for cut := 0; cut < len(body); cut++ {
		if _, err := b.decodeDeltaFrame(0, 0, body[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		b1, w1, h1, d1, g1 := snap()
		if b1 != b0 || w1 != w0 || h1 != h0 || d1 != d0 || g1 != g0 {
			t.Fatalf("truncation at %d mutated stream state", cut)
		}
	}
	flipped := append([]byte(nil), body...)
	flipped[8] |= 0x80 // unknown flag bit
	if _, err := b.decodeDeltaFrame(0, 0, flipped); !errors.Is(err, errDeltaDiscard) {
		t.Fatalf("unknown flag: err=%v", err)
	}
	if b1, w1, h1, d1, g1 := snap(); b1 != b0 || w1 != w0 || h1 != h0 || d1 != d0 || g1 != g0 {
		t.Fatal("unknown flag mutated stream state")
	}

	// A word-plane model section that does not decode — a code length of its
	// exponent plane one bit longer, so the code is incomplete, a padding bit
	// of that plane's last stream set, or that plane cut short under a
	// section length that still matches — or that carries a retired form is
	// discarded whole: a resync is requested and the watermark does not
	// move, though the frame's sequence number was the next one due.
	if _, err := b.decodeDeltaFrame(0, 0, body); err != nil {
		t.Fatal(err)
	}
	b0, w0, h0, d0, g0 = snap()
	m := trainedMF(64, 50)
	section, raw := planeSection(t, a, m)
	if section[0] != sectionPlanes {
		t.Fatal("test premise broken: the model section is not word planes")
	}
	body, _ = a.encodeDeltaBody(nil, 1, core.Payload{From: 0, Degree: 1, Model: m})
	corrupt := func(name string, bad []byte) {
		t.Helper()
		rx.wantResync = false
		if _, err := b.decodeDeltaFrame(0, 0, bad); !errors.Is(err, errDeltaDiscard) {
			t.Fatalf("%s: err=%v", name, err)
		}
		if b1, w1, h1, d1, g1 := snap(); b1 != b0 || w1 != w0 || h1 != h0 || d1 != d0 || g1 != g0 || !rx.wantResync {
			t.Fatalf("%s: stream state mutated or no resync requested (wantResync=%v)", name, rx.wantResync)
		}
	}
	at := len(body) - len(section) // the section's form byte
	nibbles, padding := exponentPlaneCode(t, section, raw)
	if body[at+nibbles]&15 >= 11 || padding == 0 {
		t.Fatalf("test premise broken: first code length %d, %d padding bits", body[at+nibbles]&15, padding)
	}
	flipped = append(flipped[:0], body...)
	flipped[at+nibbles]++
	corrupt("incomplete Huffman code", flipped)
	flipped = append(flipped[:0], body...)
	flipped[len(flipped)-1] |= 0x80
	corrupt("Huffman stream padding set", flipped)
	flipped = append(flipped[:0], body...)
	flipped[at] = 2
	corrupt("retired section form 2", flipped)
	// Dropping one byte and patching the (one- or two-byte) section length
	// keeps the frame well-formed down to the planes.
	short := append([]byte(nil), body[:len(body)-1]...)
	ln, n := binary.Uvarint(short[at+1:])
	binary.PutUvarint(short[at+1:at+1+n], ln-1)
	corrupt("truncated plane", short)
	if got, err := b.decodeDeltaFrame(0, 0, body); err != nil || got.Model == nil || rx.watermark != w0+1 {
		t.Fatalf("the intact frame after the corrupt ones: err=%v watermark=%d", err, rx.watermark)
	}
}

// TestDeltaDictCapReset drives a stream into its dictionary cap and
// checks the overflow path end to end: the overflowing frame goes out as
// a full (reset) frame, both sides' dictionaries restart bounded, and
// back-references work again against the rebased window.
func TestDeltaDictCapReset(t *testing.T) {
	a, b := newDeltaPair()
	a.tx[1].dictCap = 20
	sendAndAck := func(s []dataset.Rating) deltaSendStats {
		t.Helper()
		got, st := ship(t, a, b, 0, 1, core.Payload{From: 0, Degree: 1, Data: s})
		sameMultiset(t, got.Data, s)
		ship(t, b, a, 1, 0, core.Payload{From: 1, Degree: 1}) // carry the ack back
		return st
	}

	// Two fresh samples fill the dictionary to 16 of 20 entries.
	sendAndAck(sampleRatings(8, 21))
	if st := sendAndAck(sampleRatings(8, 22)); st.resync || st.explicit != 8 {
		t.Fatalf("under cap: resync=%v explicit=%d", st.resync, st.explicit)
	}
	if a.tx[1].dict.n != 16 {
		t.Fatalf("dictionary holds %d entries, want 16", a.tx[1].dict.n)
	}

	// A third fresh sample would overflow: the frame must roll the stream
	// over instead of growing past the cap.
	s3 := sampleRatings(8, 23)
	st := sendAndAck(s3)
	if !st.resync || st.explicit != 8 || st.refs != 0 {
		t.Fatalf("overflow frame: resync=%v explicit=%d refs=%d", st.resync, st.explicit, st.refs)
	}
	if d := &a.tx[1].dict; d.n != 8 || d.occupied() != 8 {
		t.Fatalf("sender dict not restarted: %d entries, %d keys", d.n, d.occupied())
	}
	rx := b.rx[0]
	if rx.base != 3 || rx.watermark != 3 || len(rx.dict) != 8 {
		t.Fatalf("receiver not rebased: base=%d watermark=%d dict=%d", rx.base, rx.watermark, len(rx.dict))
	}

	// The acked reset is a normal stream start: a resend back-references
	// the rebased dictionary without another reset.
	if st := sendAndAck(s3); st.resync || st.refs != 8 || st.explicit != 0 {
		t.Fatalf("post-cap resend: resync=%v explicit=%d refs=%d", st.resync, st.explicit, st.refs)
	}
}

// TestRequestResetSuppression pins the one-reset-in-flight window.
func TestRequestResetSuppression(t *testing.T) {
	tx := &deltaTx{lastResetSeq: 5, ackedSeq: 4, seqOut: 5}
	tx.requestReset()
	if tx.pendingReset {
		t.Fatal("reset re-armed inside the in-flight window")
	}
	tx.seqOut = 7 // window lapsed without an ack: the reset was lost, retry
	tx.requestReset()
	if !tx.pendingReset {
		t.Fatal("lost reset never retried")
	}
	tx = &deltaTx{lastResetSeq: 5, ackedSeq: 5, seqOut: 5}
	tx.requestReset() // reset acked: a new request is honored immediately
	if !tx.pendingReset {
		t.Fatal("acked reset suppressed a fresh request")
	}
}

// trainedMF returns an MF model trained on n of sampleRatings' ratings.
func trainedMF(n, steps int) *mf.Model {
	m := mf.New(mf.DefaultConfig())
	m.Train(sampleRatings(n, 13), steps, rand.New(rand.NewSource(2)))
	return m
}

// planeSection builds m's model section on a and returns it with m's
// marshaled bytes.
func planeSection(t *testing.T, a *runner, m model.Model) (section, raw []byte) {
	t.Helper()
	if err := a.buildModelSection(core.Payload{Model: m}); err != nil {
		t.Fatal(err)
	}
	raw, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return a.modelSection, raw
}

// exponentPlaneCode reads a word-plane model section built from the
// marshaled bytes raw whose exponent plane (plane 3) is Huffman-coded: it
// returns the offset in the section of the plane's first code-length byte
// and the padding bits of its last stream, which ends the section. The
// stream's bits are counted from the plane itself: the top byte of each
// word of the plane's last quarter rotated left by one.
func exponentPlaneCode(t *testing.T, section, raw []byte) (nibbles, padding int) {
	t.Helper()
	_, n := binary.Uvarint(section[1:])
	at := 1 + n
	flags := section[at]
	_, n = binary.Uvarint(section[at+1:])
	words := len(raw) / 4
	at += 1 + n + 2*words + len(raw)%4
	if flags&1 != 0 {
		at += 4 + int(binary.LittleEndian.Uint32(section[at:]))
	} else {
		at += words
	}
	if flags&2 == 0 {
		t.Fatal("test premise broken: the exponent plane is not coded")
	}
	bitmap := section[at+4 : at+4+32]
	nibbles = at + 4 + 32
	var lens [256]int
	for s, i := 0, 0; s < 256; s++ {
		if bitmap[s/8]>>(s%8)&1 != 0 {
			lens[s] = int(section[nibbles+i/2]>>(4*(i%2))) & 15
			i++
		}
	}
	streamBits := 0
	for w := 3 * ((words + 3) / 4); w < words; w++ {
		streamBits += lens[bits.RotateLeft32(binary.LittleEndian.Uint32(raw[4*w:]), 1)>>24]
	}
	return nibbles, (8 - streamBits%8) % 8
}

// TestDeltaModelSection round-trips model payloads from a single row pair
// up: the section is word planes whenever that is smaller and the marshaled
// bytes otherwise, with no size threshold — a model of under 512 B, which
// once went out raw untried, already gains.
func TestDeltaModelSection(t *testing.T) {
	for _, tc := range []struct {
		ratings int
		form    byte
	}{{1, sectionRaw}, {4, sectionPlanes}, {64, sectionPlanes}} {
		m := trainedMF(tc.ratings, 50)
		a, b := newDeltaPair()
		section, raw := planeSection(t, a, m)
		if section[0] != tc.form || (tc.form == sectionPlanes) != (len(section) < len(raw)) {
			t.Fatalf("%d ratings: %d-byte model in a %d-byte section of form %d, want form %d",
				tc.ratings, len(raw), len(section), section[0], tc.form)
		}
		if tc.ratings == 4 && len(raw) >= 512 {
			t.Fatalf("test premise broken: the small model marshals to %d bytes", len(raw))
		}
		got, _ := ship(t, a, b, 0, 1, core.Payload{From: 0, Degree: 1, Model: m})
		if got.Model == nil {
			t.Fatal("model payload lost")
		}
		if out, _ := got.Model.Marshal(); !bytes.Equal(out, raw) {
			t.Fatalf("%d ratings: model drifted on the wire", tc.ratings)
		}
	}
}

// TestModelSectionIsModelAgnostic: the planes know words, not models — a
// dense float32 network gains and round-trips bit for bit through a model
// frame exactly as the sparse MF tables do.
func TestModelSectionIsModelAgnostic(t *testing.T) {
	ncfg := nn.DefaultConfig(200, 40)
	newModel := func() model.Model { return nn.NewNet(ncfg) }
	a := newRunner(Config{Neighbors: []int{1}, NewModel: newModel}, false)
	b := newRunner(Config{Neighbors: []int{0}, NewModel: newModel}, false)
	m := nn.NewNet(ncfg)
	m.Train(sampleRatings(30, 5), 20, rand.New(rand.NewSource(3)))
	section, raw := planeSection(t, a, m)
	if section[0] != sectionPlanes || float64(len(section)) > 0.9*float64(len(raw)) {
		t.Fatalf("%d-byte network in a %d-byte section of form %d", len(raw), len(section), section[0])
	}
	got, _ := ship(t, a, b, 0, 1, core.Payload{From: 0, Degree: 1, Model: m})
	if out, _ := got.Model.Marshal(); !bytes.Equal(out, raw) || got.Model != b.recvModel[0] {
		t.Fatal("the decoded network is not the sent one, in the peer's receive model")
	}
}

// occupied counts the keys in the dictionary's table.
func (d *txDict) occupied() int {
	n := 0
	for _, s := range d.slots {
		if s != 0 {
			n++
		}
	}
	return n
}

// mapDict is the reference model of the sender's dictionary: the Go map
// the compact txDict replaced, keyed by Rating.Key, with absolute frame
// sequences.
type mapDict struct {
	lastSent map[uint64]mapEntry
	dictLen  uint32
}

type mapEntry struct {
	value float32
	seq   uint64
	idx   uint32
}

// encode is encodeDeltaBody over the reference dictionary. The stream's
// scalar state (sequence, ack, reset arming) is the real deltaTx's as it
// stood before the real encode: only the dictionary is modelled.
func (m *mapDict) encode(tx deltaTx, flags byte, ackPlus1 uint64, p core.Payload) (body []byte, explicit []dataset.Rating, refs []uint32) {
	seq := tx.seqOut + 1
	if tx.pendingReset || m.dictLen+uint32(len(p.Data)) > tx.dictCap {
		flags |= deltaFlagReset
		m.lastSent = make(map[uint64]mapEntry)
		m.dictLen = 0
	}
	for _, rt := range p.Data {
		if e, ok := m.lastSent[rt.Key()]; flags&deltaFlagReset == 0 && ok && e.seq <= tx.ackedSeq && e.value == rt.Value {
			refs = append(refs, e.idx)
			continue
		}
		m.lastSent[rt.Key()] = mapEntry{value: rt.Value, seq: seq, idx: m.dictLen}
		m.dictLen++
		explicit = append(explicit, rt)
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i] < refs[j] })

	body = binary.LittleEndian.AppendUint32(body, uint32(p.From))
	body = binary.LittleEndian.AppendUint32(body, uint32(p.Degree))
	body = append(body, flags, payloadData)
	body = binary.AppendUvarint(body, seq)
	body = binary.AppendUvarint(body, ackPlus1)
	body = compress.AppendRatingsColumnar(body, explicit)
	body = compress.AppendIndexDeltas(body, refs)
	body = binary.LittleEndian.AppendUint32(body, payloadChecksum(p.Data))
	return body, explicit, refs
}

// TestTxDictMatchesMapModel drives one edge through random sequences of
// sends (fresh keys, re-sent keys, changed values), frame loss, ack
// carriers, dictionary roll-overs and resync resets, and checks the
// compact dictionary makes the reference map's decisions exactly: the
// same explicit entries, the same references, the same frame bytes.
func TestTxDictMatchesMapModel(t *testing.T) {
	var refs, resets, oversized int64
	for trial := int64(0); trial < 40; trial++ {
		rng := rand.New(rand.NewSource(100 + trial))
		a, b := newDeltaPair()
		tx := a.tx[1]
		tx.dictCap = []uint32{24, 64, 300}[trial%3]
		model := &mapDict{lastSent: map[uint64]mapEntry{}}
		pool := sampleRatings(120, trial)
		for step := 0; step < 400; step++ {
			// A sample of distinct pool entries, now and then larger than
			// the whole dictionary; some values drift between sends.
			n := 1 + rng.Intn(30)
			sample := make([]dataset.Rating, 0, n)
			for _, j := range rng.Perm(len(pool))[:n] {
				if rng.Intn(10) == 0 {
					pool[j].Value = float32(rng.Intn(9)+2) / 2
				}
				sample = append(sample, pool[j])
			}
			if rng.Intn(25) == 0 {
				tx.pendingReset = true // a resync the peer asked for
			}
			p := core.Payload{From: 0, Degree: 1, Data: sample}
			var flags byte
			if a.rx[1].wantResync {
				flags = deltaFlagResyncReq
			}
			want, wantExp, wantRefs := model.encode(*tx, flags, a.rx[1].ackPlus1(), p)
			got, st := a.encodeDeltaBody(nil, 1, p)
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d step %d: frame bytes differ from the map model", trial, step)
			}
			if st.explicit != int64(len(wantExp)) || st.refs != int64(len(wantRefs)) {
				t.Fatalf("trial %d step %d: explicit/refs = %d/%d, model %d/%d",
					trial, step, st.explicit, st.refs, len(wantExp), len(wantRefs))
			}
			if st.resync != (got[8]&deltaFlagReset != 0) {
				t.Fatalf("trial %d step %d: resync stat disagrees with the frame", trial, step)
			}
			if !st.resync && (!slices.Equal(tx.expBuf, wantExp) || !slices.Equal(tx.refBuf, wantRefs)) {
				t.Fatalf("trial %d step %d: split differs from the map model", trial, step)
			}
			if tx.dict.n != model.dictLen {
				t.Fatalf("trial %d step %d: %d entries, model %d", trial, step, tx.dict.n, model.dictLen)
			}
			refs += st.refs
			if st.resync {
				resets++
			}
			if len(sample) > int(tx.dictCap) {
				oversized++
			}
			if rng.Intn(5) == 0 {
				continue // frame lost: acks lag, gaps open, resyncs follow
			}
			if pl, err := b.decodeDeltaFrame(0, 0, got); err == nil {
				sameMultiset(t, pl.Data, sample)
			} else if !errors.Is(err, errDeltaDiscard) {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			if rng.Intn(3) > 0 { // the reverse frame carries ack and resync request
				ship(t, b, a, 1, 0, core.Payload{From: 1, Degree: 1})
			}
		}
		if tx.dict.occupied() > int(tx.dict.n) {
			t.Fatalf("trial %d: %d keys for %d entries", trial, tx.dict.occupied(), tx.dict.n)
		}
	}
	if refs == 0 || resets == 0 || oversized == 0 {
		t.Fatalf("sequences too tame: %d references, %d resets, %d oversized samples", refs, resets, oversized)
	}
	t.Logf("%d references, %d resets, %d oversized samples", refs, resets, oversized)
}

// TestDeltaParkedSegmentSurvivesScratchReuse parks an out-of-order frame
// in rx.segs and decodes two more frames through the same scratch: the
// parked entries must be the receiver's own copy, and once the gap fills
// the dictionary is the in-order concatenation.
func TestDeltaParkedSegmentSurvivesScratchReuse(t *testing.T) {
	a, b := newDeltaPair()
	frames := make([][]dataset.Rating, 5)
	bodies := make([][]byte, 5)
	for i := range frames {
		frames[i] = sampleRatings(6+i, int64(40+i))
		for j := range frames[i] {
			frames[i][j].Item += uint32(100 * i) // distinct keys across frames: all explicit
		}
		bodies[i], _ = a.encodeDeltaBody(nil, 1, core.Payload{From: 0, Degree: 1, Data: frames[i]})
	}
	deliver := func(i int) {
		t.Helper()
		p, err := b.decodeDeltaFrame(0, 0, bodies[i])
		if err != nil {
			t.Fatalf("frame %d: %v", i+1, err)
		}
		sameMultiset(t, p.Data, frames[i])
	}
	rx := b.rx[0]
	deliver(0)
	deliver(2) // seq 3 overtakes seq 2: parked
	deliver(3) // two more frames reuse the decode scratch
	deliver(4)
	if rx.watermark != 1 || len(rx.segs) != 3 {
		t.Fatalf("watermark=%d parked=%d, want 1 and 3", rx.watermark, len(rx.segs))
	}
	if !slices.Equal(rx.segs[3], frames[2]) {
		t.Fatalf("parked segment rewritten by later decodes: %+v", rx.segs[3])
	}
	deliver(1)
	if rx.watermark != 5 || len(rx.segs) != 0 {
		t.Fatalf("gap fill: watermark=%d parked=%d", rx.watermark, len(rx.segs))
	}
	if want := slices.Concat(frames...); !slices.Equal(rx.dict, want) {
		t.Fatalf("dictionary is not the in-order concatenation (%d entries, want %d)", len(rx.dict), len(want))
	}
}

// TestDeltaWireSteadyStateAllocs guards the raw-data epoch's codec: once an
// edge's buffers have held a frame, encoding (back-referencing frames and
// the dictionary roll-over alike) and decoding a data frame allocate
// nothing.
func TestDeltaWireSteadyStateAllocs(t *testing.T) {
	a, b := newDeltaPair()
	const pts = 300
	pool := sampleRatings(2*pts, 7)
	var buf, ack []byte
	round := func(reset bool) {
		off := rand.Intn(pts)
		a.tx[1].pendingReset = reset
		var st deltaSendStats
		buf, st = a.encodeDeltaBody(buf[:0], 1, core.Payload{From: 0, Degree: 1, Data: pool[off : off+pts]})
		if reset && !st.resync {
			t.Fatal("armed reset did not go out")
		}
		if _, err := b.decodeDeltaFrame(0, 0, buf); err != nil {
			t.Fatal(err)
		}
		ack, _ = b.encodeDeltaBody(ack[:0], 0, core.Payload{From: 1, Degree: 1})
		if _, err := a.decodeDeltaFrame(0, 1, ack); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ { // warm up through a few roll-overs: both rx dictionaries exist
		round(false)
	}
	if n := testing.AllocsPerRun(40, func() { round(false) }); n != 0 {
		t.Fatalf("steady-state delta round trip allocates %.0f objects", n)
	}
	if n := testing.AllocsPerRun(10, func() { round(true) }); n != 0 {
		t.Fatalf("reset-frame delta round trip allocates %.0f objects", n)
	}
	if rx := b.rx[0]; cap(rx.dict) != deltaDictCap || cap(rx.prevDict) != deltaDictCap {
		t.Fatalf("rx dictionaries hold %d and %d entries, want exactly %d", cap(rx.dict), cap(rx.prevDict), deltaDictCap)
	}
}

// captureEndpoint is the transport of a frame-path test: Send keeps (a copy
// of, as every Endpoint must) the last frame in a reused buffer.
type captureEndpoint struct {
	Endpoint
	frame []byte
}

func (c *captureEndpoint) Send(_ int, data []byte) error {
	c.frame = append(c.frame[:0], data...)
	return nil
}

// TestModelFrameSteadyStateAllocs guards the model-sharing epoch's frame
// path as its neighbor above guards the raw-data one: once every buffer on
// the way has held a frame of this size — marshal, plane and section
// buffers, the share path's body and sealed frame, the gather worker's
// opened plaintext, plane scratch and marshaled bytes, the peer's receive
// model — building and sealing a model frame allocates nothing, and
// neither does opening and decoding one, coded planes included.
func TestModelFrameSteadyStateAllocs(t *testing.T) {
	a, b := newDeltaPair()
	key := bytes.Repeat([]byte{7}, 32)
	for _, r := range []*runner{a, b} {
		r.cfg.Secure = true
		ch, err := seccha.NewChannel(key, r == a)
		if err != nil {
			t.Fatal(err)
		}
		r.channels = map[int]*seccha.Channel{0: ch, 1: ch}
	}
	ep := &captureEndpoint{}
	a.cfg.Endpoint = ep

	m := trainedMF(900, 4000)
	want, _ := m.Marshal()
	p := core.Payload{From: 0, Degree: 1, Model: m}
	send := func() {
		a.shareP = p
		if err := a.buildModelSection(p); err != nil {
			t.Fatal(err)
		}
		var res shareResult
		if err := a.sendOne(1, true, &res); err != nil {
			t.Fatalf("send: %v", err)
		}
	}
	var got core.Payload
	open := func() {
		res := b.open(0, 0, ep.frame)
		if res.err != nil {
			t.Fatalf("open: %v", res.err)
		}
		got = res.pl
	}
	send()
	open()
	if a.modelSection[0] != sectionPlanes {
		t.Fatal("test premise broken: the model section is not word planes")
	}
	if n := testing.AllocsPerRun(20, send); n != 0 {
		t.Fatalf("building and sealing a warm model frame allocates %.0f objects", n)
	}
	if n := testing.AllocsPerRun(20, func() { send(); open() }); n != 0 {
		t.Fatalf("warm model frame round trip allocates %.0f objects", n)
	}
	if out, _ := got.Model.Marshal(); !bytes.Equal(out, want) || got.Model != b.recvModel[0] {
		t.Fatal("the decoded model is not the sent one, in the peer's receive model")
	}
}

// TestSendShareSteadyStateAllocs guards the share goroutine of a secure
// REX node with seven peers: once the send scratch and each peer's stream
// have held a frame, encoding, sealing and sending the epoch's sample to
// every peer in turn allocates nothing.
func TestSendShareSteadyStateAllocs(t *testing.T) {
	peers := []int{1, 2, 3, 4, 5, 6, 7}
	r := newRunner(Config{Neighbors: peers, Secure: true, Endpoint: &captureEndpoint{}}, false)
	r.channels = make(map[int]*seccha.Channel, len(peers))
	for _, nb := range peers {
		ch, err := seccha.NewChannel(bytes.Repeat([]byte{byte(nb)}, 32), true)
		if err != nil {
			t.Fatal(err)
		}
		r.channels[nb] = ch
		r.targets[nb] = true
	}
	r.shareTo = peers
	r.shareP = core.Payload{From: 0, Degree: len(peers), Data: sampleRatings(40, 11)}
	send := func() {
		if res := r.sendShare(); res.err != nil || len(res.lost) != 0 {
			t.Fatalf("send: err %v, lost %v", res.err, res.lost)
		}
	}
	send()
	if n := testing.AllocsPerRun(20, send); n != 0 {
		t.Fatalf("a warm sendShare to %d peers allocates %.0f objects", len(peers), n)
	}
}

// TestDeltaSeqOffsetRollover pins the other roll-over trigger: dictionary
// entries record their frame as a 32-bit offset from the stream start, so
// a data frame that far past it restarts the stream rather than wrap.
func TestDeltaSeqOffsetRollover(t *testing.T) {
	a, b := newDeltaPair()
	s := sampleRatings(5, 3)
	ship(t, a, b, 0, 1, core.Payload{From: 0, Degree: 1, Data: s})
	a.tx[1].seqOut = math.MaxUint32 // the next frame is 2^32 past the start
	if _, st := ship(t, a, b, 0, 1, core.Payload{From: 0, Degree: 1}); st.resync {
		t.Fatal("an empty frame registers nothing and must not reset")
	}
	got, st := ship(t, a, b, 0, 1, core.Payload{From: 0, Degree: 1, Data: s})
	if !st.resync || st.explicit != 5 {
		t.Fatalf("frame 2^32+1 past the start: resync=%v explicit=%d", st.resync, st.explicit)
	}
	sameMultiset(t, got.Data, s)
	if tx := a.tx[1]; tx.lastResetSeq != tx.seqOut || tx.dict.seqs[0] != 0 {
		t.Fatalf("stream not restarted at the reset: lastResetSeq=%d seqOut=%d", tx.lastResetSeq, tx.seqOut)
	}
}
