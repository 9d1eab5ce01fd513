package runtime

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/mf"
	"rex/internal/model"
)

// FuzzDecodePayload throws arbitrary bytes at the flat payload decoder:
// malformed, truncated, oversized or reordered inputs must produce an
// error, never a panic, and a successful decode must re-encode cleanly.
// No gossip frame carries the flat encoding, but DecodePayload is
// exported, so it is held to the same bar as the delta decoder.
func FuzzDecodePayload(f *testing.F) {
	mcfg := mf.DefaultConfig()
	// Seed corpus: one valid frame per payload kind, plus classic parser
	// traps (truncations, kind confusion, absurd counts).
	for _, p := range []core.Payload{
		{From: 3, Degree: 7},
		{From: 1, Degree: 2, Data: []dataset.Rating{{User: 5, Item: 6, Value: 2.5}}},
	} {
		b, err := EncodePayloadAppend(nil, p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	m := mf.New(mcfg)
	m.Train([]dataset.Rating{{User: 1, Item: 2, Value: 4}}, 50, rand.New(rand.NewSource(1)))
	if b, err := EncodePayloadAppend(nil, core.Payload{From: 9, Degree: 4, Model: m}); err == nil {
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(func() []byte { // data payload claiming 2^31 ratings
		b := make([]byte, 13)
		b[8] = 2
		binary.LittleEndian.PutUint32(b[9:], 1<<31)
		return b
	}())

	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := DecodePayload(b, func() model.Model { return mf.New(mcfg) })
		if err != nil {
			return
		}
		if _, err := EncodePayloadAppend(nil, p); err != nil {
			t.Fatalf("decoded payload does not re-encode: %v", err)
		}
	})
}

// FuzzDecodeDeltaPayload throws arbitrary bytes at the delta frame
// decoder against a receiver with live stream state: arbitrary,
// truncated or reordered inputs must never panic, and a rejected frame
// must leave the stream reconstruction (base, watermark, dictionary,
// buffered segments) exactly as it was — the reject-without-mutation
// contract that lets the resync protocol recover from any garbage — and
// must leave nothing in the per-peer decode scratch that changes how the
// next genuine frame decodes.
func FuzzDecodeDeltaPayload(f *testing.F) {
	mcfg := mf.DefaultConfig()
	seedPair := func() (*runner, *runner) {
		newModel := func() model.Model { return mf.New(mcfg) }
		a := newRunner(Config{Neighbors: []int{1}, NewModel: newModel}, false)
		b := newRunner(Config{Neighbors: []int{0}, NewModel: newModel}, false)
		sample := []dataset.Rating{
			{User: 5, Item: 6, Value: 2.5}, {User: 7, Item: 8, Value: 4},
			{User: 5, Item: 9, Value: 1.5},
		}
		// Two frames and a reverse ack, so the receiver holds a dictionary
		// and the third frame's references resolve.
		for i := 0; i < 2; i++ {
			body, _ := a.encodeDeltaBody(nil, 1, core.Payload{From: 0, Degree: 2, Data: sample})
			if _, err := b.decodeDeltaFrame(0, 0, body); err != nil {
				f.Fatal(err)
			}
		}
		back, _ := b.encodeDeltaBody(nil, 0, core.Payload{From: 1, Degree: 2})
		if _, err := a.decodeDeltaFrame(0, 1, back); err != nil {
			f.Fatal(err)
		}
		return a, b
	}

	// Seed corpus: a reference-carrying data frame, an empty frame, a
	// model frame of each section form and one of a retired form, a reset,
	// plus parser traps.
	a, _ := seedPair()
	refFrame, _ := a.encodeDeltaBody(nil, 1, core.Payload{From: 0, Degree: 2,
		Data: []dataset.Rating{{User: 5, Item: 6, Value: 2.5}, {User: 1, Item: 2, Value: 3}}})
	f.Add(refFrame)
	empty, _ := a.encodeDeltaBody(nil, 1, core.Payload{From: 0, Degree: 2})
	f.Add(empty)
	m := mf.New(mcfg)
	m.Train([]dataset.Rating{{User: 1, Item: 2, Value: 4}}, 50, rand.New(rand.NewSource(1)))
	for _, m := range []*mf.Model{m, trainedMF(64, 50)} { // 112 B goes raw, 3 KB as word planes
		if err := a.buildModelSection(core.Payload{Model: m}); err == nil {
			mb, _ := a.encodeDeltaBody(nil, 1, core.Payload{From: 0, Degree: 2, Model: m})
			f.Add(mb)
		}
	}
	if a.modelSection[0] != sectionPlanes {
		f.Fatal("seed corpus lacks a word-plane model frame")
	}
	// The same frame under section form 2, retired with the planes over
	// DEFLATE's Huffman coder.
	retired, _ := a.encodeDeltaBody(nil, 1, core.Payload{From: 0, Degree: 2, Model: trainedMF(64, 50)})
	retired[len(retired)-len(a.modelSection)] = 2
	f.Add(retired)
	a.tx[1].pendingReset = true
	reset, _ := a.encodeDeltaBody(nil, 1, core.Payload{From: 0, Degree: 2,
		Data: []dataset.Rating{{User: 3, Item: 4, Value: 5}}})
	f.Add(reset)
	f.Add([]byte{})
	f.Add(refFrame[:11])
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0xff, 2, 1, 0})

	f.Fuzz(func(t *testing.T, body []byte) {
		_, rcv := seedPair()
		rx := rcv.rx[0]
		base, watermark, high := rx.base, rx.watermark, rx.highSeen
		dict := append([]dataset.Rating(nil), rx.dict...)
		segs := len(rx.segs)
		_, err := rcv.decodeDeltaFrame(0, 0, body)
		if err != nil {
			// A valid frame may mutate; a rejected one may not.
			if rx.base != base || rx.watermark != watermark || rx.highSeen != high ||
				len(rx.dict) != len(dict) || len(rx.segs) != segs {
				t.Fatalf("rejected frame mutated stream state: %v", err)
			}
			for i := range dict {
				if rx.dict[i] != dict[i] {
					t.Fatalf("rejected frame rewrote dict[%d]", i)
				}
			}
		}

		// Whatever body left in the decode scratch, the next genuine frame
		// decodes as it does on a receiver in the same stream state whose
		// scratch was never used.
		_, clean := seedPair()
		clean.decodeDeltaFrame(0, 0, body)
		clean.rx[0].frame, clean.rx[0].sample = deltaFrame{}, nil
		got, gotErr := rcv.decodeDeltaFrame(0, 0, refFrame)
		want, wantErr := clean.decodeDeltaFrame(0, 0, refFrame)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("dirty scratch: err=%v, clean scratch: err=%v", gotErr, wantErr)
		}
		if got.From != want.From || got.Degree != want.Degree || !slices.Equal(got.Data, want.Data) {
			t.Fatalf("dirty scratch decoded %+v, clean scratch %+v", got, want)
		}
		if cx := clean.rx[0]; rx.base != cx.base || rx.watermark != cx.watermark || rx.highSeen != cx.highSeen ||
			rx.wantResync != cx.wantResync || !slices.Equal(rx.dict, cx.dict) || len(rx.segs) != len(cx.segs) {
			t.Fatal("dirty scratch left a different stream state than clean scratch")
		}
	})
}

// FuzzDeltaStream is TestDeltaStreamDeliversSenderPayload with the input
// as the schedule: each choice runDeltaStream makes consumes one byte (its
// value modulo the choices), and the schedule ends where the bytes do.
func FuzzDeltaStream(f *testing.F) {
	f.Add([]byte{})
	for seed := int64(0); seed < 4; seed++ {
		b := make([]byte, 512)
		rand.New(rand.NewSource(seed)).Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		runDeltaStream(t, func(n int) (int, bool) {
			if len(b) == 0 {
				return 0, false
			}
			v := int(b[0]) % n
			b = b[1:]
			return v, true
		})
	})
}
