// Package runtime executes REX live: concurrent nodes exchanging real
// messages over in-process channels or TCP, with real mutual attestation
// (internal/attest) and AES-GCM encrypted gossip (internal/seccha). It is
// the Algorithm 1 + Algorithm 2 pairing of the paper — the untrusted
// bootstrap/network shell around the enclaved protocol logic in
// internal/core — and backs the rexd command.
//
// The runtime is layered:
//
//   - transport (this file, channet.go, tcp.go, shard.go): Endpoint
//     implementations. TCPNet gives every peer a dedicated outbound lane
//     (writer goroutine + bounded queue) so a slow peer never stalls sends
//     to healthy ones; the shard transport bridges several in-process
//     nodes across OS processes over one TCP link per shard pair.
//   - runner (runner.go, attest.go): the per-node epoch pipeline — frames
//     are decrypted and decoded as they arrive, on one worker per P, and
//     one goroutine seals and sends the share, overlapping the test stage.
//     The runner starts these goroutines once, on first use, and they live
//     until Engine.Stop or the endpoint's Done; every per-epoch channel,
//     map and timer is a runner field refilled in place, so a warm epoch
//     allocates only what the store and the model grow by. ChanNet
//     recycles the frames the runner has opened (Releaser).
//   - cluster driver (cluster.go): RunCluster executes a whole deployment
//     in one process, or one shard of a multi-process deployment.
package runtime

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Envelope is one delivered message.
type Envelope struct {
	From int
	Data []byte
}

// Endpoint is a node's connection to its peers. Implementations must
// deliver messages from any single peer in FIFO order.
type Endpoint interface {
	// Send transmits data to peer `to`. Implementations copy data before
	// returning (or retain it only until the frame is handed to the OS),
	// so the caller may reuse the buffer once Send returns. Delivery may
	// be asynchronous: a nil error means the frame was accepted, not that
	// the peer received it; transport failures surface on later Sends.
	Send(to int, data []byte) error
	// Inbox streams received envelopes.
	Inbox() <-chan Envelope
	// Done is closed when the endpoint shuts down. Receivers select on it
	// alongside Inbox; implementations whose inbox has concurrent senders
	// keep the inbox channel open forever and signal shutdown here only.
	Done() <-chan struct{}
	// Close releases resources and closes Done.
	Close() error
}

// QueueReporter is an optional Endpoint extension reporting the transport
// queue-depth high-water mark observed so far (outbound lane depth for
// TCPNet, inbox depth for the in-process transports). The runner copies it
// into Stats so pipelining headroom is measurable.
type QueueReporter interface {
	SendQueueHWM() int
}

// FaultReporter is an optional Endpoint extension implemented by
// fault-injecting transport wrappers (internal/faultnet): it reports how
// many outbound gossip frames the wrapper discarded (drops plus partition
// cuts) and how many it delayed. The runner copies the counts into Stats.
type FaultReporter interface {
	FaultCounts() (dropped, delayed int64)
}

// Releaser is an optional Endpoint extension, implemented by ChanNet: the
// runner hands back each inbound gossip frame once it has opened it, and
// the transport may copy a later delivery into the frame's memory. The
// caller must not touch a frame after releasing it. A wrapper that may
// deliver one frame twice (internal/faultnet duplicates) must not forward
// Release: the two copies would be handed to two senders.
type Releaser interface {
	Release(frame []byte)
}

// ErrPeerClosed reports a send to a peer whose endpoint has shut down.
// The runner treats it (like any per-peer transport failure) as a peer
// loss, not a fatal error.
var ErrPeerClosed = errors.New("runtime: peer endpoint closed")

// errEndpointClosed reports use of an endpoint after its own Close; unlike
// a per-peer failure it aborts the run.
var errEndpointClosed = errors.New("runtime: endpoint closed")

// maxQueueHWM folds a fresh depth observation into a high-water slot.
// Callers pass the same *atomic value; a CAS loop keeps concurrent
// observers from regressing the mark.
func maxQueueHWM(slot *atomic.Int64, depth int64) {
	for {
		cur := slot.Load()
		if depth <= cur || slot.CompareAndSwap(cur, depth) {
			return
		}
	}
}

// deliverLocal implements in-process delivery shared by the chan and
// shard transports: copy data into the destination inbox, honoring both
// sides' shutdown signals. The copy reuses a frame from free, the
// destination's released frames, when one is large enough (a nil free
// always allocates). The upfront peer-done check gives a deterministic
// ErrPeerClosed even when the inbox still has room.
func deliverLocal(from int, data []byte, to int, inbox chan Envelope, free chan []byte, peerDone, ownDone <-chan struct{}, hwm *atomic.Int64) error {
	select {
	case <-peerDone:
		return fmt.Errorf("runtime: peer %d: %w", to, ErrPeerClosed)
	default:
	}
	var cp []byte
	select {
	case buf := <-free:
		if cap(buf) >= len(data) {
			cp = buf[:len(data)]
		}
	default:
	}
	if cp == nil {
		cp = make([]byte, len(data))
	}
	copy(cp, data)
	select {
	case inbox <- Envelope{From: from, Data: cp}:
		maxQueueHWM(hwm, int64(len(inbox)))
		return nil
	case <-peerDone:
		return fmt.Errorf("runtime: peer %d: %w", to, ErrPeerClosed)
	case <-ownDone:
		return errEndpointClosed
	}
}
