package runtime

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// frame layout: uint32 length, uint32 sender id, payload.
const frameHeader = 8

// maxFrame bounds a frame to keep a malicious peer from exhausting memory.
const maxFrame = 512 << 20

// laneQueueDepth bounds each per-peer outbound queue. A full queue applies
// backpressure to Send rather than buffering without limit.
const laneQueueDepth = 64

// Lane write batching: when the writer wakes up with frames queued behind
// the one it took, it coalesces them — up to laneBatchFrames frames or
// laneBatchBytes bytes — into a single vectored write, one syscall and
// one TCP push instead of one per frame. Framing is untouched: each
// frame keeps its own length prefix, so the receiver (and the per-frame
// seccha seals and replay window riding inside) see exactly the same
// byte stream, just in fewer segments.
const (
	laneBatchFrames = 16
	laneBatchBytes  = 256 << 10
)

// dial retry schedule: cluster members may start in any order, so the
// first frame to a peer waits for it to come up.
const (
	dialAttempts = 50
	dialBackoff  = 200 * time.Millisecond
	dialTimeout  = 2 * time.Second
)

// writeTimeout bounds a single frame write so a stalled peer cannot wedge
// its lane forever; flushTimeout bounds the drain of queued frames during
// Close (a node's last-epoch shares may still be queued when it shuts
// down — peers need them to finish their own last gather).
const (
	writeTimeout = 30 * time.Second
	flushTimeout = 2 * time.Second
)

// TCPNet is a TCP-based Endpoint: one listener accepting inbound streams,
// and one outbound *lane* per peer — a dedicated writer goroutine behind a
// bounded queue. Sends to distinct peers never contend: Send only frames
// the message and enqueues it, and each lane dials and writes outside any
// shared lock, so one slow or absent peer cannot stall gossip to the rest.
type TCPNet struct {
	id    int
	peers map[int]string

	ln    net.Listener
	inbox chan Envelope

	mu       sync.Mutex
	lanes    map[int]*tcpLane
	accepted []net.Conn
	done     chan struct{}
	wg       sync.WaitGroup
	once     sync.Once
}

// tcpLane is the outbound path to one peer: a bounded queue of framed
// messages drained by a single writer goroutine that owns the connection.
// Frame buffers recycle through the free list, so steady-state sends
// allocate nothing in the transport.
type tcpLane struct {
	net  *TCPNet
	to   int
	addr string

	queue chan []byte
	free  chan []byte
	qhwm  atomic.Int64

	// sendMu serializes producers with the writer's shutdown flush: every
	// enqueue happens under it, and flush marks `closed` under it after a
	// final drain, so a Send can never slip a frame into a queue nobody
	// will ever empty (which would return nil yet silently drop data).
	sendMu sync.Mutex
	closed bool

	mu   sync.Mutex
	conn net.Conn // owned by the writer; closed by Close to unblock it
	err  error    // sticky transport failure, reported by later Sends

	// batch and bufs are the writer's reusable batching scratch. They are
	// two slices because net.Buffers.WriteTo consumes (re-slices) the
	// buffer list it is handed: bufs is the copy handed to the kernel,
	// batch retains the frames so they can be recycled afterwards.
	batch [][]byte
	bufs  net.Buffers
}

// NewTCPNet starts a TCP endpoint for node id, listening on listenAddr,
// with peers mapping node ids to host:port addresses.
func NewTCPNet(id int, listenAddr string, peers map[int]string) (*TCPNet, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("runtime: listen %s: %w", listenAddr, err)
	}
	t := &TCPNet{
		id: id, peers: peers, ln: ln,
		inbox: make(chan Envelope, 1024),
		lanes: make(map[int]*tcpLane),
		done:  make(chan struct{}),
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

func (t *TCPNet) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		t.accepted = append(t.accepted, conn)
		t.mu.Unlock()
		t.wg.Add(1)
		go t.readLoop(conn)
	}
}

func (t *TCPNet) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	hdr := make([]byte, frameHeader)
	for {
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return
		}
		ln := binary.LittleEndian.Uint32(hdr)
		from := int(binary.LittleEndian.Uint32(hdr[4:]))
		if ln > maxFrame {
			return
		}
		body := make([]byte, ln)
		if _, err := io.ReadFull(conn, body); err != nil {
			return
		}
		select {
		case t.inbox <- Envelope{From: from, Data: body}:
		case <-t.done:
			return
		}
	}
}

// lane returns (creating and starting if needed) the outbound lane to a
// peer. Only the lanes-map lookup holds t.mu; dialing happens in the
// lane's writer goroutine, which is also the per-peer dial guard — one
// dialer per peer, never blocking sends to other peers.
func (t *TCPNet) lane(to int) (*tcpLane, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if l, ok := t.lanes[to]; ok {
		return l, nil
	}
	addr, ok := t.peers[to]
	if !ok {
		return nil, fmt.Errorf("runtime: unknown peer %d", to)
	}
	select {
	case <-t.done:
		return nil, errEndpointClosed
	default:
	}
	l := &tcpLane{
		net: t, to: to, addr: addr,
		queue: make(chan []byte, laneQueueDepth),
		free:  make(chan []byte, laneQueueDepth),
	}
	t.lanes[to] = l
	t.wg.Add(1)
	go l.run()
	return l, nil
}

// Send implements Endpoint: frame the message and hand it to the peer's
// lane. It blocks only when that peer's queue is full (backpressure), and
// returns the lane's sticky error if the peer has failed.
func (t *TCPNet) Send(to int, data []byte) error {
	return t.send(to, nil, data)
}

// send frames prefix+data as one message. The prefix rides inside the
// lane's recycled frame buffer, so layered transports (the shard bridge's
// routing header) add theirs without an extra allocation and copy.
func (t *TCPNet) send(to int, prefix, data []byte) error {
	l, err := t.lane(to)
	if err != nil {
		return err
	}
	if err := l.sticky(); err != nil {
		return err
	}
	body := len(prefix) + len(data)
	frame := l.buffer(frameHeader + body)
	binary.LittleEndian.PutUint32(frame, uint32(body))
	binary.LittleEndian.PutUint32(frame[4:], uint32(t.id))
	copy(frame[frameHeader:], prefix)
	copy(frame[frameHeader+len(prefix):], data)
	l.sendMu.Lock()
	defer l.sendMu.Unlock()
	if l.closed {
		l.recycle(frame)
		return errEndpointClosed
	}
	select {
	case l.queue <- frame: // blocking here is the per-peer backpressure
		maxQueueHWM(&l.qhwm, int64(len(l.queue)))
		return nil
	case <-t.done:
		l.recycle(frame)
		return errEndpointClosed
	}
}

// Inbox implements Endpoint.
func (t *TCPNet) Inbox() <-chan Envelope { return t.inbox }

// Done implements Endpoint.
func (t *TCPNet) Done() <-chan struct{} { return t.done }

// SendQueueHWM implements QueueReporter: the deepest any outbound lane's
// queue has been.
func (t *TCPNet) SendQueueHWM() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	hwm := 0
	for _, l := range t.lanes {
		if v := int(l.qhwm.Load()); v > hwm {
			hwm = v
		}
	}
	return hwm
}

// Close implements Endpoint: it stops accepting sends, gives each lane a
// bounded window to flush frames already queued (so peers still get this
// node's final shares), then tears everything down.
func (t *TCPNet) Close() error {
	t.once.Do(func() {
		close(t.done)
		t.ln.Close()
		t.mu.Lock()
		for _, l := range t.lanes {
			l.interrupt()
		}
		for _, c := range t.accepted {
			c.Close()
		}
		t.mu.Unlock()
		t.wg.Wait()
		// All readLoop senders have exited; closing the inbox is safe and
		// lets range-style consumers terminate.
		close(t.inbox)
	})
	return nil
}

// run is the lane's writer goroutine: dial once (with retries), then drain
// the queue into the connection. On failure the error sticks — later
// Sends to this peer report it — and the lane keeps discarding queued
// frames so senders never block on a dead peer.
func (l *tcpLane) run() {
	defer l.net.wg.Done()
	conn, err := l.dialRetry()
	if err != nil {
		l.fail(err)
		l.discard()
		return
	}
	l.mu.Lock()
	l.conn = conn
	l.mu.Unlock()
	select {
	case <-l.net.done: // Close raced the dial and may have missed the conn
		l.flush(conn)
		return
	default:
	}
	for {
		select {
		case frame := <-l.queue:
			conn.SetWriteDeadline(time.Now().Add(writeTimeout))
			err := l.writeBatch(conn, frame)
			if err != nil {
				conn.Close()
				l.fail(fmt.Errorf("runtime: sending to %d: %w", l.to, err))
				l.discard()
				return
			}
		case <-l.net.done:
			l.flush(conn)
			return
		}
	}
}

// writeBatch coalesces first with whatever else is already queued (up to
// the lane batch caps) into one vectored write, then recycles every frame.
// A seal round queues one frame per peer in a burst, so the writer usually
// finds the next round's frames waiting by the time it wakes up.
func (l *tcpLane) writeBatch(conn net.Conn, first []byte) error {
	batch := append(l.batch[:0], first)
	size := len(first)
fill:
	for len(batch) < laneBatchFrames && size < laneBatchBytes {
		select {
		case f := <-l.queue:
			batch = append(batch, f)
			size += len(f)
		default:
			break fill
		}
	}
	l.batch = batch
	var err error
	if len(batch) == 1 {
		_, err = conn.Write(first)
	} else {
		l.bufs = append(l.bufs[:0], batch...)
		_, err = l.bufs.WriteTo(conn)
	}
	for i, f := range batch {
		l.recycle(f)
		batch[i] = nil // drop the reference; the free list owns it now
	}
	return err
}

// flush drains frames queued before shutdown into the connection, bounded
// by flushTimeout, then closes it. Marking the lane closed under sendMu
// after the final drain guarantees no Send can enqueue into — and lose a
// frame to — a queue the departed writer will never service again.
func (l *tcpLane) flush(conn net.Conn) {
	conn.SetWriteDeadline(time.Now().Add(flushTimeout))
	drain := func() bool {
		for {
			select {
			case frame := <-l.queue:
				_, err := conn.Write(frame)
				l.recycle(frame)
				if err != nil {
					l.fail(fmt.Errorf("runtime: sending to %d: %w", l.to, err))
					return false
				}
			default:
				return true
			}
		}
	}
	ok := drain()
	l.sendMu.Lock()
	l.closed = true
	if ok {
		drain() // frames that raced in between the first drain and closed
	}
	l.sendMu.Unlock()
	conn.Close()
}

// dialRetry establishes the outbound connection, retrying so cluster
// members may start in any order. It runs in the writer goroutine — no
// lock is held while waiting, which is the fix for the old transport
// holding the endpoint mutex across the whole 50 x 200 ms retry loop.
func (l *tcpLane) dialRetry() (net.Conn, error) {
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		c, err := net.DialTimeout("tcp", l.addr, dialTimeout)
		if err == nil {
			return c, nil
		}
		lastErr = err
		select {
		case <-l.net.done:
			return nil, errEndpointClosed
		case <-time.After(dialBackoff):
		}
	}
	return nil, fmt.Errorf("runtime: dialing peer %d at %s: %w", l.to, l.addr, lastErr)
}

// discard drains queued frames after a failure so producers blocked on a
// full queue wake up; it exits when the endpoint closes (marking the lane
// closed first, so no later Send strands a frame).
func (l *tcpLane) discard() {
	for {
		select {
		case frame := <-l.queue:
			l.recycle(frame)
		case <-l.net.done:
			l.sendMu.Lock()
			l.closed = true
			for {
				select {
				case frame := <-l.queue:
					l.recycle(frame)
				default:
					l.sendMu.Unlock()
					return
				}
			}
		}
	}
}

// buffer returns a frame buffer of length n: a recycled one when it fits,
// else a new one with headroom (see grow), so that next epoch's slightly
// larger frame still fits the buffer this one leaves on the free list.
func (l *tcpLane) buffer(n int) []byte {
	var b []byte
	select {
	case b = <-l.free:
	default:
	}
	return grow(b, n)[:n]
}

func (l *tcpLane) recycle(b []byte) {
	select {
	case l.free <- b:
	default:
	}
}

func (l *tcpLane) sticky() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

func (l *tcpLane) fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = err
	}
}

// interrupt caps how long an in-flight write may still take once Close
// has begun, without yanking the connection out from under the writer's
// flush.
func (l *tcpLane) interrupt() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn != nil {
		l.conn.SetWriteDeadline(time.Now().Add(flushTimeout))
	}
}
