package faultnet

import (
	"sync"
	"testing"
	"time"

	"rex/internal/runtime"
)

// mockEndpoint records sends.
type mockEndpoint struct {
	mu    sync.Mutex
	sends []mockSend
	inbox chan runtime.Envelope
	done  chan struct{}
}

type mockSend struct {
	to   int
	data []byte
}

func newMock() *mockEndpoint {
	return &mockEndpoint{inbox: make(chan runtime.Envelope, 64), done: make(chan struct{})}
}

func (m *mockEndpoint) Send(to int, data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sends = append(m.sends, mockSend{to, append([]byte(nil), data...)})
	return nil
}
func (m *mockEndpoint) Inbox() <-chan runtime.Envelope { return m.inbox }
func (m *mockEndpoint) Done() <-chan struct{}          { return m.done }
func (m *mockEndpoint) Close() error                   { close(m.done); return nil }

func (m *mockEndpoint) frames() []mockSend {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]mockSend(nil), m.sends...)
}

func gossipFrame(b byte) []byte { return []byte{runtime.FrameKindGossipDelta, b} }

func TestWrapDropsAndCounts(t *testing.T) {
	inner := newMock()
	var log Log
	sc := &Scenario{Seed: 1, Drop: 1}
	ep := Wrap(inner, 0, sc, &log)
	for i := 0; i < 3; i++ {
		if err := ep.Send(1, gossipFrame(byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(inner.frames()); n != 0 {
		t.Fatalf("%d frames leaked through a 100%% drop", n)
	}
	dropped, delayed := ep.(runtime.FaultReporter).FaultCounts()
	if dropped != 3 || delayed != 0 {
		t.Fatalf("counts %d/%d", dropped, delayed)
	}
	evs := log.Events()
	if len(evs) != 3 || evs[0].Kind != KindDrop || evs[2].Epoch != 2 {
		t.Fatalf("log %v", evs)
	}
}

// TestWrapAttestationPassthrough: bootstrap traffic is never faulted.
func TestWrapAttestationPassthrough(t *testing.T) {
	inner := newMock()
	sc := &Scenario{Seed: 1, Drop: 1, Duplicate: 1}
	ep := Wrap(inner, 0, sc, nil)
	attest := []byte{runtime.FrameKindAttest, 9, 9}
	if err := ep.Send(1, attest); err != nil {
		t.Fatal(err)
	}
	fr := inner.frames()
	if len(fr) != 1 || fr[0].data[0] != runtime.FrameKindAttest {
		t.Fatalf("attestation frames faulted: %v", fr)
	}
}

func TestWrapDuplicates(t *testing.T) {
	inner := newMock()
	sc := &Scenario{Seed: 1, Duplicate: 1}
	ep := Wrap(inner, 0, sc, nil)
	ep.Send(1, gossipFrame(7))
	fr := inner.frames()
	if len(fr) != 2 || fr[0].data[1] != 7 || fr[1].data[1] != 7 {
		t.Fatalf("duplicate produced %v", fr)
	}
}

// TestWrapReorderSwapsAdjacentFrames: with reorder on every frame, frame k
// is stashed and released right after frame k+1 — and Close flushes a
// stash that never found a successor.
func TestWrapReorderSwapsAdjacentFrames(t *testing.T) {
	inner := newMock()
	sc := &Scenario{Seed: 1, Reorder: 1} // Epochs unset: no final-frame guard
	ep := Wrap(inner, 0, sc, nil)
	for i := byte(0); i < 4; i++ {
		ep.Send(1, gossipFrame(i))
	}
	got := inner.frames()
	want := []byte{1, 0, 3, 2}
	if len(got) != len(want) {
		t.Fatalf("%d frames sent, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].data[1] != w {
			t.Fatalf("frame order %v, want %v", got, want)
		}
	}
	// A trailing odd frame stays stashed until Close.
	ep.Send(1, gossipFrame(4))
	if len(inner.frames()) != 4 {
		t.Fatal("stash leaked before Close")
	}
	ep.Close()
	fr := inner.frames()
	if len(fr) != 5 || fr[4].data[1] != 4 {
		t.Fatalf("Close did not flush the stash: %v", fr)
	}
}

// TestWrapDelayHoldsFrame: the delayed frame still arrives (after the
// scheduled hold) and is counted.
func TestWrapDelayHoldsFrame(t *testing.T) {
	inner := newMock()
	sc := &Scenario{Seed: 1, Delay: 1, DelayMs: 20}
	ep := Wrap(inner, 0, sc, nil)
	start := time.Now()
	ep.Send(1, gossipFrame(1))
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("delay not applied (send took %v)", d)
	}
	if len(inner.frames()) != 1 {
		t.Fatal("delayed frame lost")
	}
	_, delayed := ep.(runtime.FaultReporter).FaultCounts()
	if delayed != 1 {
		t.Fatalf("delayed count %d", delayed)
	}
}
