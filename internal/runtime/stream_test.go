package runtime

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/mf"
)

// streamFrame is one frame in flight on the forward link of the
// delta-stream state machine, with what its sender knew when it encoded it.
type streamFrame struct {
	body   []byte
	seq    uint64           // the frame's sequence number
	base   uint64           // the stream start its references were coded against
	refs   bool             // carries back-references
	reset  bool             // is a stream reset
	sample []dataset.Rating // the ratings encoded (none for empty and model frames)
	model  []byte           // the marshaled model carried, for model frames
}

// linkStep applies one event to the frame at the head of a link's queue
// q: 0 delivers it, 1 drops it, 2 delivers a duplicate and keeps it queued,
// 3 swaps it with the frame behind it. It returns the queue left.
func linkStep[F any](q []F, event int, deliver func(F)) []F {
	if len(q) == 0 {
		return q
	}
	switch event {
	case 0:
		deliver(q[0])
		return q[1:]
	case 1:
		return q[1:]
	case 2:
		deliver(q[0])
	default:
		if len(q) > 1 {
			q[0], q[1] = q[1], q[0]
		}
	}
	return q
}

// streamCounts tallies what delta-stream schedules exercised.
type streamCounts struct {
	frames, refs, resets, models int
	archived                     int // accepted frames resolved against the archived window
	discarded                    int // frames rejected because their window was gone
}

func (c *streamCounts) add(d streamCounts) {
	c.frames += d.frames
	c.refs += d.refs
	c.resets += d.resets
	c.models += d.models
	c.archived += d.archived
	c.discarded += d.discarded
}

// runDeltaStream drives one delta edge through a schedule whose choices
// come from choose (a value in [0, n); ok false ends the schedule), then
// through a loss-free tail. Node 0 sends node 1 data, empty and, now and
// then, model frames over a forward link; node 1's empty reverse frames
// carry its acks and resync requests back over a reverse link. Both links
// drop, duplicate and swap adjacent frames; the forward link also loses
// runs of three or more frames, which open the gaps that force stream
// resets, and delivers late duplicates of any frame it ever carried; a
// small dictionary cap forces roll-overs. The oracle is the sender's own
// payload:
//   - every forward frame the receiver accepts reconstructs exactly the
//     sample (as a multiset) or the model bytes the sender encoded;
//   - a frame is rejected, with errDeltaDiscard and the watermark unmoved,
//     exactly when it references a dictionary window the receiver no
//     longer holds: the stream start it was coded against is neither the
//     receiver's live one nor the one it archived at its last rebase;
//   - acks only advance, and never past what the receiver holds;
//   - after the tail the stream is whole (watermark == seqOut, no resync
//     wanted) and its last frame is back-references only.
func runDeltaStream(t *testing.T, choose func(n int) (int, bool)) streamCounts {
	t.Helper()
	pick := func(n int) int { v, _ := choose(n); return v }
	a, b := newDeltaPair()
	tx, rx := a.tx[1], b.rx[0]
	tx.dictCap = []uint32{16, 32, 48}[pick(3)]
	// A small key universe, so samples overlap and references occur.
	keys := make([]dataset.Rating, 16)
	for i := range keys {
		keys[i] = dataset.Rating{User: uint32(i % 3), Item: uint32(i), Value: float32(i%9+2) / 2}
	}
	models := []*mf.Model{trainedMF(4, 50), trainedMF(12, 50)}

	var c streamCounts
	var fwd, sent []streamFrame
	var rev [][]byte
	// bases are the stream starts the receiver has adopted, in order: the
	// first delivery of a reset newer than the last one rebases it.
	bases := []uint64{0}

	send := func(p core.Payload, model []byte) (streamFrame, deltaSendStats) {
		body, st := a.encodeDeltaBody(nil, 1, p)
		c.frames++
		if st.refs > 0 {
			c.refs++
		}
		if st.resync {
			c.resets++
		}
		f := streamFrame{
			body: body, seq: tx.seqOut, base: tx.lastResetSeq,
			refs: st.refs > 0, reset: st.resync,
			sample: slices.Clone(p.Data), model: model,
		}
		sent = append(sent, f)
		return f, st
	}
	share := func() streamFrame {
		p := core.Payload{From: 0, Degree: 1}
		var raw []byte
		switch pick(8) {
		case 0: // nothing for this peer this epoch
		case 1:
			p.Model = models[pick(len(models))]
			var err error
			if raw, err = p.Model.Marshal(); err == nil {
				err = a.buildModelSection(p)
			}
			if err != nil {
				t.Fatal(err)
			}
			c.models++
		default:
			perm := make([]int, len(keys))
			for i := range perm {
				perm[i] = i
			}
			for i := range 1 + pick(4) {
				j := i + pick(len(perm)-i)
				perm[i], perm[j] = perm[j], perm[i]
				if pick(8) == 0 {
					keys[perm[i]].Value = float32(pick(10)+1) / 2
				}
				p.Data = append(p.Data, keys[perm[i]])
			}
		}
		f, _ := send(p, raw)
		return f
	}
	deliver := func(f streamFrame) {
		t.Helper()
		w := rx.watermark
		pl, err := b.decodeDeltaFrame(0, 0, f.body)
		live, prev := bases[len(bases)-1], bases[max(0, len(bases)-2)]
		held := !f.refs || f.base == live || f.base == prev
		if err != nil {
			if !errors.Is(err, errDeltaDiscard) || rx.watermark != w {
				t.Fatalf("frame %d: rejected with %v, watermark %d -> %d", f.seq, err, w, rx.watermark)
			}
			if held {
				t.Fatalf("frame %d (stream start %d) rejected, though the receiver holds that window (live %d, archived %d): %v",
					f.seq, f.base, live, prev, err)
			}
			c.discarded++
			return
		}
		if !held {
			t.Fatalf("frame %d accepted, though it references stream start %d and the receiver holds only %d and %d",
				f.seq, f.base, live, prev)
		}
		if f.refs && f.base != live {
			c.archived++
		}
		if f.reset && f.seq > live {
			bases = append(bases, f.seq)
		}
		if rx.watermark < w {
			t.Fatalf("frame %d moved the watermark back: %d -> %d", f.seq, w, rx.watermark)
		}
		if pl.From != 0 || pl.Degree != 1 {
			t.Fatalf("frame %d: from %d degree %d", f.seq, pl.From, pl.Degree)
		}
		if f.model != nil {
			if out, err := pl.Model.Marshal(); err != nil || !bytes.Equal(out, f.model) || len(pl.Data) != 0 {
				t.Fatalf("frame %d: the model received is not the model sent", f.seq)
			}
			return
		}
		if pl.Model != nil {
			t.Fatalf("frame %d: a model appeared in a data frame", f.seq)
		}
		sameMultiset(t, pl.Data, f.sample)
	}
	ack := func(body []byte) {
		t.Helper()
		before := tx.ackedSeq
		if _, err := a.decodeDeltaFrame(0, 1, body); err != nil {
			t.Fatalf("reverse frame rejected: %v", err)
		}
		if tx.ackedSeq < before || tx.ackedSeq > rx.watermark || tx.ackedSeq > tx.seqOut {
			t.Fatalf("ack %d -> %d, receiver watermark %d, sent %d", before, tx.ackedSeq, rx.watermark, tx.seqOut)
		}
	}
	reverse := func() []byte {
		body, _ := b.encodeDeltaBody(nil, 0, core.Payload{From: 1, Degree: 1})
		return body
	}

	for {
		op, ok := choose(32)
		if !ok {
			break
		}
		switch {
		case op < 8: // a round: each side shares a frame
			fwd = append(fwd, share())
			rev = append(rev, reverse())
		case op < 21: // the forward link delivers, drops, duplicates or swaps
			fwd = linkStep(fwd, []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 2, 3, 3, 3}[op-8], deliver)
		case op == 21: // a loss run: frames encoded, never delivered
			for range 3 + pick(3) {
				share()
			}
		case op == 22 && len(sent) > 0: // a late duplicate of any frame ever sent
			deliver(sent[pick(len(sent))])
		case op < 30:
			rev = linkStep(rev, 0, ack)
		default:
			rev = linkStep(rev, 1+pick(3), ack)
		}
	}

	// The loss-free tail: both links flush in order, then clean rounds of
	// one sample and its ack until the stream has had time to heal.
	for _, f := range fwd {
		deliver(f)
	}
	for _, body := range rev {
		ack(body)
	}
	sample := slices.Clone(keys[:4])
	var last deltaSendStats
	for range 12 {
		var f streamFrame
		f, last = send(core.Payload{From: 0, Degree: 1, Data: sample}, nil)
		deliver(f)
		ack(reverse())
	}
	if rx.watermark != tx.seqOut || rx.wantResync {
		t.Fatalf("after the loss-free tail: watermark %d of %d sent, wantResync %v", rx.watermark, tx.seqOut, rx.wantResync)
	}
	if last.refs != int64(len(sample)) {
		t.Fatalf("after the loss-free tail: %d of %d triplets back-referenced", last.refs, len(sample))
	}
	return c
}

// TestDeltaStreamDeliversSenderPayload runs the delta-stream state machine
// (runDeltaStream) over 200 random schedules: loss, duplication, adjacent
// swaps, loss runs and dictionary roll-overs, with the sender's payload as
// the per-frame oracle.
func TestDeltaStreamDeliversSenderPayload(t *testing.T) {
	var total streamCounts
	for trial := int64(0); trial < 200; trial++ {
		rng := rand.New(rand.NewSource(trial))
		choices := 0
		total.add(runDeltaStream(t, func(n int) (int, bool) {
			choices++
			return rng.Intn(n), choices <= 1500
		}))
	}
	if total.refs == 0 || total.resets == 0 || total.models == 0 || total.archived == 0 || total.discarded == 0 {
		t.Fatalf("schedules too tame: %+v", total)
	}
	t.Logf("%+v", total)
}
