package seccha

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// detRand is a deterministic entropy source for tests.
func detRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func pair(t *testing.T) (*Channel, *Channel) {
	t.Helper()
	a, err := GenerateKeyPair(detRand(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateKeyPair(detRand(2))
	if err != nil {
		t.Fatal(err)
	}
	sa, err := a.SharedSecret(b.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.SharedSecret(a.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa, sb) {
		t.Fatal("ECDH secrets disagree")
	}
	ma := sha256.Sum256([]byte("m"))
	key := ChannelKey(sa, ma[:], ma[:])
	ca, err := NewChannel(key, true)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := NewChannel(key, false)
	if err != nil {
		t.Fatal(err)
	}
	return ca, cb
}

func TestChannelRoundtrip(t *testing.T) {
	a, b := pair(t)
	msg := []byte("raw ratings are safe in here")
	ct := a.SealAppend(nil, msg)
	if bytes.Contains(ct, msg) {
		t.Fatal("ciphertext leaks plaintext")
	}
	pt, err := b.OpenAppend(nil, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Fatalf("roundtrip mismatch: %q", pt)
	}
}

// TestChannelAppendVariants pins the buffer-reuse API the live runtime's
// share/open scratch depends on: SealAppend/OpenAppend must produce the
// same bytes as into a nil buffer, append after any prefix, and stay
// correct when the same buffer is recycled across messages.
func TestChannelAppendVariants(t *testing.T) {
	key := bytes.Repeat([]byte{0x5c}, 32)
	mk := func(init bool) *Channel {
		c, err := NewChannel(key, init)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	a, b := mk(true), mk(false)
	a2, b2 := mk(true), mk(false)
	var sealBuf, openBuf []byte
	for i := 0; i < 5; i++ {
		msg := []byte(fmt.Sprintf("epoch %d payload", i))
		ref := a2.SealAppend(nil, msg)
		sealBuf = append(sealBuf[:0], 0xEE) // simulated frame kind prefix
		sealBuf = a.SealAppend(sealBuf, msg)
		if sealBuf[0] != 0xEE || !bytes.Equal(sealBuf[1:], ref) {
			t.Fatalf("message %d: SealAppend diverged from a nil-buffer seal", i)
		}
		refPt, err := b2.OpenAppend(nil, ref)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := b.OpenAppend(openBuf[:0], sealBuf[1:])
		if err != nil {
			t.Fatal(err)
		}
		openBuf = pt
		if !bytes.Equal(pt, refPt) || !bytes.Equal(pt, msg) {
			t.Fatalf("message %d: OpenAppend mismatch: %q", i, pt)
		}
	}
}

func TestChannelBidirectional(t *testing.T) {
	a, b := pair(t)
	for i := 0; i < 10; i++ {
		m1 := []byte{byte(i), 1}
		m2 := []byte{byte(i), 2}
		if pt, err := b.OpenAppend(nil, a.SealAppend(nil, m1)); err != nil || !bytes.Equal(pt, m1) {
			t.Fatalf("a->b msg %d: %v", i, err)
		}
		if pt, err := a.OpenAppend(nil, b.SealAppend(nil, m2)); err != nil || !bytes.Equal(pt, m2) {
			t.Fatalf("b->a msg %d: %v", i, err)
		}
	}
}

func TestChannelTamperDetected(t *testing.T) {
	a, b := pair(t)
	ct := a.SealAppend(nil, []byte("payload"))
	ct[len(ct)/2] ^= 0x01
	if _, err := b.OpenAppend(nil, ct); err != ErrAuth {
		t.Fatalf("tampering not detected: %v", err)
	}
}

func TestChannelReplayAndReorderRejected(t *testing.T) {
	a, b := pair(t)
	ct1 := a.SealAppend(nil, []byte("one"))
	ct2 := a.SealAppend(nil, []byte("two"))
	if _, err := b.OpenAppend(nil, ct2); err == nil {
		t.Fatal("out-of-order message accepted")
	}
	if _, err := b.OpenAppend(nil, ct1); err != nil {
		t.Fatalf("in-order message rejected after failed open: %v", err)
	}
	if _, err := b.OpenAppend(nil, ct1); err == nil {
		t.Fatal("replay accepted")
	}
}

func TestChannelDirectionsSeparate(t *testing.T) {
	a, _ := pair(t)
	ct := a.SealAppend(nil, []byte("self"))
	// The sender cannot open its own traffic: directions have distinct
	// nonce spaces.
	if _, err := a.OpenAppend(nil, ct); err == nil {
		t.Fatal("sender decrypted its own ciphertext")
	}
}

func TestChannelRoundtripProperty(t *testing.T) {
	a, b := pair(t)
	f := func(msg []byte) bool {
		pt, err := b.OpenAppend(nil, a.SealAppend(nil, msg))
		return err == nil && bytes.Equal(pt, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestChannelBadKey(t *testing.T) {
	if _, err := NewChannel(make([]byte, 16), true); err == nil {
		t.Fatal("16-byte key accepted")
	}
}

func TestHKDFDeterministicAndSized(t *testing.T) {
	secret := []byte("secret")
	for _, n := range []int{1, 16, 32, 33, 64, 100} {
		a := HKDF(secret, []byte("salt"), []byte("info"), n)
		b := HKDF(secret, []byte("salt"), []byte("info"), n)
		if len(a) != n || !bytes.Equal(a, b) {
			t.Fatalf("HKDF(%d) len=%d deterministic=%v", n, len(a), bytes.Equal(a, b))
		}
	}
	x := HKDF(secret, nil, []byte("a"), 32)
	y := HKDF(secret, nil, []byte("b"), 32)
	if bytes.Equal(x, y) {
		t.Fatal("different info, same key")
	}
}

func TestChannelKeySymmetric(t *testing.T) {
	ma := sha256.Sum256([]byte("A"))
	mb := sha256.Sum256([]byte("B"))
	s := []byte("shared")
	k1 := ChannelKey(s, ma[:], mb[:])
	k2 := ChannelKey(s, mb[:], ma[:])
	if !bytes.Equal(k1, k2) {
		t.Fatal("channel key depends on argument order")
	}
	if len(k1) != 32 {
		t.Fatalf("key length %d", len(k1))
	}
}

func TestSharedSecretBadKey(t *testing.T) {
	a, err := GenerateKeyPair(detRand(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.SharedSecret([]byte{1, 2, 3}); err == nil {
		t.Fatal("malformed public key accepted")
	}
}

func TestOverhead(t *testing.T) {
	a, _ := pair(t)
	if a.Overhead() != 16 {
		t.Fatalf("GCM overhead %d", a.Overhead())
	}
	ct := a.SealAppend(nil, []byte("xx"))
	if len(ct) != 2+16 {
		t.Fatalf("ciphertext length %d", len(ct))
	}
}
