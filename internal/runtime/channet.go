package runtime

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// chanEndpoint is one port of an in-process mesh.
type chanEndpoint struct {
	id    int
	mesh  []*chanEndpoint
	inbox chan Envelope
	// free holds frames this endpoint's runner has released, at most one
	// per peer (a round's worth); sends to this endpoint copy into them.
	free chan []byte
	done chan struct{}
	once sync.Once
	// qhwm tracks the deepest this endpoint's inbox has been (updated by
	// senders, which observe the depth right after a successful send).
	qhwm atomic.Int64
}

// NewChanNet builds a fully meshed in-process transport for n nodes, one
// endpoint per node. It backs in-process clusters (RunCluster, the load
// simulator, the benchmark) and tests; semantics match the TCP transport
// (reliable, per-peer FIFO). Frames the receiver releases (Releaser) are
// reused for later deliveries to it, so a warm cluster copies frames
// without allocating.
func NewChanNet(n int) []Endpoint {
	eps := make([]*chanEndpoint, n)
	for i := range eps {
		eps[i] = &chanEndpoint{
			id:    i,
			inbox: make(chan Envelope, 16*n+64),
			free:  make(chan []byte, n-1),
			done:  make(chan struct{}),
		}
	}
	for i := range eps {
		eps[i].mesh = eps
	}
	out := make([]Endpoint, n)
	for i := range eps {
		out[i] = eps[i]
	}
	return out
}

// Send delivers a copy of data to the peer's inbox. A send to a closed
// peer reports ErrPeerClosed rather than blocking (or, as the transport
// once did, swallowing the failure with a recover on the closed channel).
func (e *chanEndpoint) Send(to int, data []byte) error {
	if to < 0 || to >= len(e.mesh) {
		return fmt.Errorf("runtime: no peer %d", to)
	}
	select {
	case <-e.done:
		return errEndpointClosed
	default:
	}
	dst := e.mesh[to]
	return deliverLocal(e.id, data, to, dst.inbox, dst.free, dst.done, e.done, &dst.qhwm)
}

func (e *chanEndpoint) Inbox() <-chan Envelope { return e.inbox }

func (e *chanEndpoint) Done() <-chan struct{} { return e.done }

// Close signals shutdown via the done channel. The inbox channel itself is
// never closed: with concurrent senders there is no race-free point to do
// so, which is exactly why shutdown is a select on Done rather than a
// close-detecting receive.
func (e *chanEndpoint) Close() error {
	e.once.Do(func() { close(e.done) })
	return nil
}

// SendQueueHWM implements QueueReporter (inbox depth high-water mark).
func (e *chanEndpoint) SendQueueHWM() int { return int(e.qhwm.Load()) }

// Release implements Releaser: the frame joins the free list, or is left
// to the collector when the list is full.
func (e *chanEndpoint) Release(frame []byte) {
	select {
	case e.free <- frame:
	default:
	}
}
