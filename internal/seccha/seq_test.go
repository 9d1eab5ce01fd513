package seccha

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// TestSeqRoundtrip pins the explicit-sequence framing: frames open in
// order, the plaintext matches, and the frame carries SeqOverhead extra
// bytes over the strict framing.
func TestSeqRoundtrip(t *testing.T) {
	a, b := pair(t)
	for i := 0; i < 5; i++ {
		msg := []byte(fmt.Sprintf("frame %d", i))
		fr := a.SealSeqAppend(nil, msg)
		if len(fr) != len(msg)+SeqOverhead+a.Overhead() {
			t.Fatalf("frame %d bytes, want %d", len(fr), len(msg)+SeqOverhead+a.Overhead())
		}
		pt, err := b.OpenSeqAppend(nil, fr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pt, msg) {
			t.Fatalf("roundtrip mismatch: %q", pt)
		}
	}
}

// TestSeqSurvivesLoss is the property the faultnet harness depends on: a
// dropped frame must not desynchronize the channel — later frames still
// authenticate (the strict Seal/Open pairing fails here by design).
func TestSeqSurvivesLoss(t *testing.T) {
	a, b := pair(t)
	frames := make([][]byte, 6)
	for i := range frames {
		frames[i] = a.SealSeqAppend(nil, []byte(fmt.Sprintf("m%d", i)))
	}
	for _, i := range []int{0, 2, 5} { // 1, 3, 4 lost
		pt, err := b.OpenSeqAppend(nil, frames[i])
		if err != nil {
			t.Fatalf("frame %d after losses: %v", i, err)
		}
		if string(pt) != fmt.Sprintf("m%d", i) {
			t.Fatalf("frame %d decoded as %q", i, pt)
		}
	}
}

// TestSeqSurvivesReorder: frames arriving out of order within the window
// all authenticate exactly once.
func TestSeqSurvivesReorder(t *testing.T) {
	a, b := pair(t)
	frames := make([][]byte, 4)
	for i := range frames {
		frames[i] = a.SealSeqAppend(nil, []byte(fmt.Sprintf("m%d", i)))
	}
	for _, i := range []int{1, 0, 3, 2} {
		if _, err := b.OpenSeqAppend(nil, frames[i]); err != nil {
			t.Fatalf("reordered frame %d: %v", i, err)
		}
	}
}

// TestSeqRejectsReplay: a duplicated frame fails with ErrReplay (not
// ErrAuth) so receivers can discard it without treating the peer as
// compromised, and the original still opened fine.
func TestSeqRejectsReplay(t *testing.T) {
	a, b := pair(t)
	fr := a.SealSeqAppend(nil, []byte("once"))
	if _, err := b.OpenSeqAppend(nil, fr); err != nil {
		t.Fatal(err)
	}
	if _, err := b.OpenSeqAppend(nil, fr); !errors.Is(err, ErrReplay) {
		t.Fatalf("replay: got %v, want ErrReplay", err)
	}
	// And the channel still works afterwards.
	fr2 := a.SealSeqAppend(nil, []byte("next"))
	if pt, err := b.OpenSeqAppend(nil, fr2); err != nil || string(pt) != "next" {
		t.Fatalf("post-replay frame: %v %q", err, pt)
	}
}

// TestSeqWindowAges: a frame further behind the highest accepted sequence
// than the window is rejected as stale.
func TestSeqWindowAges(t *testing.T) {
	a, b := pair(t)
	old := a.SealSeqAppend(nil, []byte("ancient"))
	var last []byte
	for i := 0; i < replayWindow+2; i++ {
		last = a.SealSeqAppend(nil, []byte("x"))
	}
	if _, err := b.OpenSeqAppend(nil, last); err != nil {
		t.Fatal(err)
	}
	if _, err := b.OpenSeqAppend(nil, old); !errors.Is(err, ErrReplay) {
		t.Fatalf("stale frame: got %v, want ErrReplay", err)
	}
}

// TestSeqWindowEdgeReplayRejected pins the off-by-one at the window's
// edge: after accepting seq 0 and then seq exactly replayWindow ahead,
// the seq-0 frame is still inside the representable window and its
// replay must be rejected, not accepted a second time.
func TestSeqWindowEdgeReplayRejected(t *testing.T) {
	a, b := pair(t)
	frames := make([][]byte, replayWindow+1)
	for i := range frames {
		frames[i] = a.SealSeqAppend(nil, []byte{byte(i)})
	}
	if _, err := b.OpenSeqAppend(nil, frames[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := b.OpenSeqAppend(nil, frames[replayWindow]); err != nil {
		t.Fatal(err)
	}
	if _, err := b.OpenSeqAppend(nil, frames[0]); !errors.Is(err, ErrReplay) {
		t.Fatalf("edge-of-window replay: got %v, want ErrReplay", err)
	}
	// A never-seen frame at the same distance still opens.
	if _, err := b.OpenSeqAppend(nil, frames[1]); err != nil {
		t.Fatalf("in-window fresh frame rejected: %v", err)
	}
}

// TestSeqTamperDetected: flipping any byte (sequence or ciphertext) fails
// authentication with ErrAuth.
func TestSeqTamperDetected(t *testing.T) {
	a, b := pair(t)
	fr := a.SealSeqAppend(nil, []byte("payload"))
	for _, i := range []int{3, SeqOverhead, len(fr) - 1} {
		bad := append([]byte(nil), fr...)
		bad[i] ^= 0x40
		if _, err := b.OpenSeqAppend(nil, bad); !errors.Is(err, ErrAuth) {
			t.Fatalf("tampered byte %d: got %v, want ErrAuth", i, err)
		}
	}
	if _, err := b.OpenSeqAppend(nil, fr[:SeqOverhead-1]); !errors.Is(err, ErrAuth) {
		t.Fatal("truncated frame accepted")
	}
	// The untampered frame still opens: failed attempts must not burn the
	// sequence.
	if _, err := b.OpenSeqAppend(nil, fr); err != nil {
		t.Fatalf("original after tamper attempts: %v", err)
	}
}

// TestSeqBidirectional: both directions run explicit-sequence framing on
// one key without nonce collisions.
func TestSeqBidirectional(t *testing.T) {
	a, b := pair(t)
	fa := a.SealSeqAppend(nil, []byte("from a"))
	fb := b.SealSeqAppend(nil, []byte("from b"))
	if pt, err := b.OpenSeqAppend(nil, fa); err != nil || string(pt) != "from a" {
		t.Fatalf("a->b: %v %q", err, pt)
	}
	if pt, err := a.OpenSeqAppend(nil, fb); err != nil || string(pt) != "from b" {
		t.Fatalf("b->a: %v %q", err, pt)
	}
}

// TestSeqAppendAllocs guards the gossip hot path: sealing and opening a
// frame into buffers that already fit it allocates nothing (the nonce is
// built in the channel, not on the heap).
func TestSeqAppendAllocs(t *testing.T) {
	a, b := pair(t)
	msg := bytes.Repeat([]byte{7}, 1024)
	fr := make([]byte, 0, len(msg)+SeqOverhead+a.Overhead())
	pt := make([]byte, 0, len(msg))
	allocs := testing.AllocsPerRun(50, func() {
		fr = a.SealSeqAppend(fr[:0], msg)
		var err error
		if pt, err = b.OpenSeqAppend(pt[:0], fr); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("seal+open of a 1 KB frame allocates %.0f objects", allocs)
	}
	if !bytes.Equal(pt, msg) {
		t.Fatal("roundtrip mismatch")
	}
}
