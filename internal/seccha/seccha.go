// Package seccha implements the secure channel REX establishes between two
// mutually attested enclaves (paper §III-A): an elliptic-curve
// Diffie–Hellman key agreement whose public keys ride in the quote's
// user-data field, HKDF-SHA256 key derivation, and AES-256-GCM framing
// with strictly monotonic per-direction nonces. It stands in for Intel SGX
// SSL using only the Go standard library.
package seccha

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// KeyPair is an X25519 key pair used for the per-enclave ECDH exchange.
type KeyPair struct {
	priv *ecdh.PrivateKey
}

// GenerateKeyPair creates a key pair reading entropy from rand (pass
// crypto/rand.Reader in production, a deterministic reader in tests).
func GenerateKeyPair(rand io.Reader) (*KeyPair, error) {
	priv, err := ecdh.X25519().GenerateKey(rand)
	if err != nil {
		return nil, fmt.Errorf("seccha: generating key: %w", err)
	}
	return &KeyPair{priv: priv}, nil
}

// PublicKey returns the 32-byte X25519 public key, the value REX embeds in
// the attestation quote's user-data field.
func (k *KeyPair) PublicKey() []byte { return k.priv.PublicKey().Bytes() }

// SharedSecret runs X25519 with the peer's public key bytes.
func (k *KeyPair) SharedSecret(peerPub []byte) ([]byte, error) {
	pub, err := ecdh.X25519().NewPublicKey(peerPub)
	if err != nil {
		return nil, fmt.Errorf("seccha: bad peer public key: %w", err)
	}
	sec, err := k.priv.ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("seccha: ECDH: %w", err)
	}
	return sec, nil
}

// HKDF derives length bytes from the input keying material using
// HKDF-SHA256 (RFC 5869), implemented over crypto/hmac for compatibility
// with older Go toolchains.
func HKDF(secret, salt, info []byte, length int) []byte {
	if salt == nil {
		salt = make([]byte, sha256.Size)
	}
	ext := hmac.New(sha256.New, salt)
	ext.Write(secret)
	prk := ext.Sum(nil)

	var out []byte
	var prev []byte
	for counter := byte(1); len(out) < length; counter++ {
		h := hmac.New(sha256.New, prk)
		h.Write(prev)
		h.Write(info)
		h.Write([]byte{counter})
		prev = h.Sum(nil)
		out = append(out, prev...)
	}
	return out[:length]
}

// ChannelKey derives the 32-byte AES key both peers compute from the ECDH
// shared secret. The info string binds the key to its purpose; both
// measurements are mixed in so a key never outlives a code change.
func ChannelKey(sharedSecret []byte, measA, measB []byte) []byte {
	// Order the measurements canonically so both sides derive equal keys.
	lo, hi := measA, measB
	for i := range lo {
		if i >= len(hi) || lo[i] > hi[i] {
			lo, hi = measB, measA
			break
		} else if lo[i] < hi[i] {
			break
		}
	}
	info := append(append([]byte("rex-channel-v1"), lo...), hi...)
	return HKDF(sharedSecret, nil, info, 32)
}

// Channel is one authenticated-encryption session between two enclaves.
// Each direction has an independent nonce sequence; the initiator flag
// separates the two directions' nonce spaces so the same key can serve
// both.
type Channel struct {
	aead      cipher.AEAD
	initiator bool
	sendSeq   uint64
	recvSeq   uint64

	// Explicit-sequence receive window (SealSeq/OpenSeq framing): recvMax
	// is the highest authenticated sequence accepted so far, recvMask bit
	// i records whether recvMax-i-1 was seen, and recvAny whether any
	// frame has been accepted (distinguishes "nothing yet" from seq 0).
	recvMax  uint64
	recvMask uint64
	recvAny  bool

	// Nonce scratch, one per direction: a channel's sends and receives run
	// on different goroutines (share and gather workers), each direction on
	// one at a time.
	sendNonce, recvNonce [nonceSize]byte
}

// nonceSize is the AES-GCM standard nonce length.
const nonceSize = 12

// NewChannel builds a channel from a 32-byte key. Exactly one peer must
// pass initiator=true (REX uses the lexicographic order of node ids).
func NewChannel(key []byte, initiator bool) (*Channel, error) {
	if len(key) != 32 {
		return nil, fmt.Errorf("seccha: key must be 32 bytes, got %d", len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, fmt.Errorf("seccha: cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("seccha: GCM: %w", err)
	}
	return &Channel{aead: aead, initiator: initiator}, nil
}

// nonce builds the nonce for seq in the direction's scratch array.
func (c *Channel) nonce(seq uint64, sending bool) []byte {
	n := &c.recvNonce
	if sending {
		n = &c.sendNonce
	}
	dir := byte(0)
	if c.initiator == sending { // initiator's sends and responder's receives share space 1
		dir = 1
	}
	n[0] = dir
	binary.BigEndian.PutUint64(n[4:], seq)
	return n[:]
}

// SealAppend encrypts and authenticates plaintext, advancing the send
// sequence, and appends the ciphertext to dst (which may be nil, or a
// buffer being reused across epochs), returning the extended slice. dst
// must not alias plaintext. The output carries no nonce: both sides track
// sequences, so any drop or reorder surfaces as an authentication failure —
// the strict in-order delivery REX's pairwise TCP/ZeroMQ links provide.
func (c *Channel) SealAppend(dst, plaintext []byte) []byte {
	ct := c.aead.Seal(dst, c.nonce(c.sendSeq, true), plaintext, nil)
	c.sendSeq++
	return ct
}

// ErrAuth is returned when decryption fails (tampering, replay, or loss).
var ErrAuth = errors.New("seccha: message authentication failed")

// OpenAppend decrypts the next in-order ciphertext, advancing the receive
// sequence only on success, and appends the plaintext to dst (which may be
// nil, or a buffer being reused across epochs), returning the extended
// slice. dst must not alias ciphertext.
func (c *Channel) OpenAppend(dst, ciphertext []byte) ([]byte, error) {
	pt, err := c.aead.Open(dst, c.nonce(c.recvSeq, false), ciphertext, nil)
	if err != nil {
		return nil, ErrAuth
	}
	c.recvSeq++
	return pt, nil
}

// Overhead returns the ciphertext expansion in bytes (the GCM tag).
func (c *Channel) Overhead() int { return c.aead.Overhead() }

// The strict Seal/Open pairing above assumes perfectly reliable in-order
// delivery: one lost frame desynchronizes the implicit nonce sequence and
// every later Open fails. The SealSeq/OpenSeq pairing below instead ships
// the sequence number explicitly (8 bytes, big-endian, ahead of the
// ciphertext) and accepts frames through a sliding anti-replay window —
// the DTLS/IPsec discipline — so a lossy, reordering or duplicating link
// (or a fault-injection harness standing in for one) degrades gossip
// instead of killing the channel. A channel must use one pairing or the
// other for its whole life; both directions' nonce spaces are shared with
// the strict API.

// SeqOverhead is the framing overhead of SealSeq beyond Seal: the explicit
// sequence number.
const SeqOverhead = 8

// ErrReplay reports a frame whose sequence was already accepted or has
// fallen behind the replay window — a duplicated (or maliciously replayed)
// message. Receivers discard such frames and keep the channel alive.
var ErrReplay = errors.New("seccha: duplicate or stale sequence")

// replayWindow is how far behind the highest accepted sequence a late
// frame may arrive: recvMask tracks the 64 sequences below recvMax.
const replayWindow = 64

// SealSeqAppend encrypts plaintext into an explicit-sequence frame
// appended to dst (which may be nil or a reused buffer; it must not alias
// plaintext) and returns the extended slice.
func (c *Channel) SealSeqAppend(dst, plaintext []byte) []byte {
	var seqb [SeqOverhead]byte
	binary.BigEndian.PutUint64(seqb[:], c.sendSeq)
	dst = append(dst, seqb[:]...)
	dst = c.aead.Seal(dst, c.nonce(c.sendSeq, true), plaintext, nil)
	c.sendSeq++
	return dst
}

// OpenSeqAppend authenticates and decrypts an explicit-sequence frame,
// appending the plaintext to dst (which must not alias frame) and
// returning the extended slice. A tampered frame (including a forged
// sequence, which derives the wrong nonce) fails with ErrAuth; an already
// seen or too-old sequence fails with ErrReplay. The window advances only
// on successful authentication.
func (c *Channel) OpenSeqAppend(dst, frame []byte) ([]byte, error) {
	if len(frame) < SeqOverhead {
		return nil, ErrAuth
	}
	seq := binary.BigEndian.Uint64(frame[:SeqOverhead])
	if !c.seqFresh(seq) {
		return nil, ErrReplay
	}
	pt, err := c.aead.Open(dst, c.nonce(seq, false), frame[SeqOverhead:], nil)
	if err != nil {
		return nil, ErrAuth
	}
	c.seqMark(seq)
	return pt, nil
}

// seqFresh reports whether seq has neither been accepted nor aged out.
func (c *Channel) seqFresh(seq uint64) bool {
	if !c.recvAny || seq > c.recvMax {
		return true
	}
	if seq == c.recvMax {
		return false
	}
	behind := c.recvMax - seq
	if behind > replayWindow {
		return false
	}
	return c.recvMask&(1<<(behind-1)) == 0
}

// seqMark records an accepted sequence.
func (c *Channel) seqMark(seq uint64) {
	if !c.recvAny {
		c.recvAny = true
		c.recvMax = seq
		c.recvMask = 0
		return
	}
	if seq > c.recvMax {
		shift := seq - c.recvMax
		if shift > replayWindow {
			// The whole previous window aged out of representability.
			c.recvMask = 0
		} else {
			// shift == replayWindow is fine: Go defines x<<64 as 0, and
			// bit shift-1 records the old recvMax at the window's edge —
			// zeroing here instead would let that frame replay once.
			c.recvMask = c.recvMask<<shift | 1<<(shift-1)
		}
		c.recvMax = seq
		return
	}
	c.recvMask |= 1 << (c.recvMax - seq - 1)
}
