package runtime

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/mf"
	"rex/internal/model"
)

func TestChanNetDelivery(t *testing.T) {
	eps := NewChanNet(3)
	if err := eps[0].Send(2, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	env := <-eps[2].Inbox()
	if env.From != 0 || string(env.Data) != "hi" {
		t.Fatalf("envelope %+v", env)
	}
	if err := eps[0].Send(9, nil); err == nil {
		t.Fatal("send to missing peer accepted")
	}
	eps[1].Close()
	eps[1].Close() // double close is safe
}

// TestChanNetPeerClosed pins the done-channel semantics that replaced the
// old recover()-on-closed-channel hack: a send to a closed peer reports
// ErrPeerClosed instead of silently succeeding (or masking real panics).
func TestChanNetPeerClosed(t *testing.T) {
	eps := NewChanNet(2)
	eps[1].Close()
	err := eps[0].Send(1, []byte("late"))
	if !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("send to closed peer: got %v, want ErrPeerClosed", err)
	}
	// A closed endpoint refuses its own sends too.
	eps[1].Close()
	if err := eps[1].Send(0, []byte("x")); err == nil {
		t.Fatal("closed endpoint accepted a send")
	}
	select {
	case <-eps[1].Done():
	default:
		t.Fatal("Done not closed after Close")
	}
}

func TestChanNetCopiesData(t *testing.T) {
	eps := NewChanNet(2)
	buf := []byte("abc")
	eps[0].Send(1, buf)
	buf[0] = 'X'
	env := <-eps[1].Inbox()
	if string(env.Data) != "abc" {
		t.Fatal("transport aliases sender buffer")
	}
}

func TestTCPNetRoundtrip(t *testing.T) {
	a, err := NewTCPNet(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPNet(1, "127.0.0.1:0", map[int]string{0: a.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := b.Send(0, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-a.Inbox():
		if env.From != 1 || string(env.Data) != "over tcp" {
			t.Fatalf("envelope %+v", env)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}

func TestTCPNetOrdering(t *testing.T) {
	a, err := NewTCPNet(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPNet(1, "127.0.0.1:0", map[int]string{0: a.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 50; i++ {
		if err := b.Send(0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		select {
		case env := <-a.Inbox():
			if env.Data[0] != byte(i) {
				t.Fatalf("out of order: got %d want %d", env.Data[0], i)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timeout")
		}
	}
}

func TestTCPNetUnknownPeer(t *testing.T) {
	a, err := NewTCPNet(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(7, []byte("x")); err == nil {
		t.Fatal("unknown peer accepted")
	}
}

// BenchmarkWireBatch measures the TCP lane's frame coalescing: one op
// bursts a 16-frame wave (the lane batch cap) at a single peer and waits
// for all deliveries. Because the sends enqueue far faster than the lane
// drains, the writer coalesces the queue into vectored writes — compare
// MB/s here against the one-frame-per-write round trip the ledger reports
// as runtime.tcp_roundtrip_us_16k.
func BenchmarkWireBatch(b *testing.B) {
	const burst = 16
	recv, err := NewTCPNet(1, "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	acks := make(chan struct{}, 2*burst)
	go func() {
		for range recv.Inbox() {
			acks <- struct{}{}
		}
	}()
	hub, err := NewTCPNet(0, "127.0.0.1:0", map[int]string{1: recv.ln.Addr().String()})
	if err != nil {
		b.Fatal(err)
	}
	defer hub.Close()

	frame := make([]byte, 4<<10) // ~ a delta share frame after packing
	b.SetBytes(int64(burst * len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f := 0; f < burst; f++ {
			if err := hub.Send(1, frame); err != nil {
				b.Fatal(err)
			}
		}
		for f := 0; f < burst; f++ {
			<-acks
		}
	}
}

func TestPayloadCodecRoundtrip(t *testing.T) {
	mcfg := mf.DefaultConfig()
	m := mf.New(mcfg)
	m.Train([]dataset.Rating{{User: 1, Item: 2, Value: 4}}, 100, rand.New(rand.NewSource(1)))

	cases := []core.Payload{
		{From: 3, Degree: 7},
		{From: 1, Degree: 2, Data: []dataset.Rating{{User: 5, Item: 6, Value: 2.5}}},
		{From: 9, Degree: 4, Model: m},
	}
	for i, p := range cases {
		b, err := EncodePayloadAppend(nil, p)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got, err := DecodePayload(b, func() model.Model { return mf.New(mcfg) })
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.From != p.From || got.Degree != p.Degree {
			t.Fatalf("case %d header: %+v", i, got)
		}
		if (got.Model == nil) != (p.Model == nil) || len(got.Data) != len(p.Data) {
			t.Fatalf("case %d body kind mismatch", i)
		}
		if p.Model != nil && got.Model.Predict(1, 2) != p.Model.Predict(1, 2) {
			t.Fatalf("case %d model drifted", i)
		}
	}
}

func TestPayloadCodecErrors(t *testing.T) {
	if _, err := DecodePayload([]byte{1, 2}, nil); err == nil {
		t.Fatal("short payload accepted")
	}
	bad := make([]byte, 10)
	bad[8] = 99
	if _, err := DecodePayload(bad, func() model.Model { return nil }); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := NewEngine(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	eps := NewChanNet(1)
	nd := core.NewNode(core.Config{}, mf.New(mf.DefaultConfig()), nil, nil)
	if _, err := NewEngine(Config{Node: nd, Endpoint: eps[0], Secure: true}); err == nil {
		t.Fatal("secure mode without platform accepted")
	}
}
