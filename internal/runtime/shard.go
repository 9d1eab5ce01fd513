package runtime

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
)

// This file is the multi-process cluster transport: a topology is
// partitioned into contiguous shards, each shard runs its nodes inside one
// OS process over in-process channels, and cross-shard edges are bridged
// over a single TCP link per shard pair. This is how the paper's 8-node
// two-enclaves-per-platform deployment — and larger meshes — run as real
// multi-process clusters (RunCluster with ShardAddrs; cmd/rexd -shard i/k).

// ShardRange returns the contiguous node-id block [lo, hi) owned by shard
// s when n nodes are split across k shards.
func ShardRange(n, k, s int) (lo, hi int) {
	return s * n / k, (s + 1) * n / k
}

// shardOwners maps every node id to its owning shard.
func shardOwners(n, k int) []int {
	owners := make([]int, n)
	for s := 0; s < k; s++ {
		lo, hi := ShardRange(n, k, s)
		for i := lo; i < hi; i++ {
			owners[i] = s
		}
	}
	return owners
}

// shardFrameHeader prefixes every cross-shard frame: uint32 destination
// node, uint32 source node. (The TCP layer's own sender id carries the
// shard index, not the node id, so the bridge re-addresses frames here.)
const shardFrameHeader = 8

// shardNet is one shard's transport: an Endpoint per local node, local
// edges delivered in-process, cross-shard edges multiplexed over one
// TCPNet whose id space is shard indices. All of TCPNet's per-peer lane
// properties carry over — each remote shard gets its own outbound lane.
type shardNet struct {
	shard  int
	owners []int
	tcp    *TCPNet
	locals map[int]*shardEndpoint
	wg     sync.WaitGroup
	once   sync.Once
}

// shardEndpoint is one local node's port on a shardNet.
type shardEndpoint struct {
	net   *shardNet
	id    int
	inbox chan Envelope
	done  chan struct{}
	once  sync.Once
	qhwm  atomic.Int64
}

// newShardNet starts the transport for shard `shard` of an n-node
// topology split across len(addrs) shards: it listens on addrs[shard] for
// the other shards and dials them at theirs. The local node block's
// endpoints are in locals.
func newShardNet(n, shard int, addrs []string) (*shardNet, error) {
	peers := make(map[int]string, len(addrs)-1)
	for s, addr := range addrs {
		if s != shard {
			peers[s] = addr
		}
	}
	tcp, err := NewTCPNet(shard, addrs[shard], peers)
	if err != nil {
		return nil, err
	}
	s := &shardNet{
		shard:  shard,
		owners: shardOwners(n, len(addrs)),
		tcp:    tcp,
		locals: make(map[int]*shardEndpoint),
	}
	lo, hi := ShardRange(n, len(addrs), shard)
	for i := lo; i < hi; i++ {
		s.locals[i] = &shardEndpoint{
			net: s, id: i,
			inbox: make(chan Envelope, 16*n+64),
			done:  make(chan struct{}),
		}
	}
	s.wg.Add(1)
	go s.demux()
	return s, nil
}

// demux routes inbound cross-shard frames to the destination node's inbox.
func (s *shardNet) demux() {
	defer s.wg.Done()
	for env := range s.tcp.Inbox() {
		if len(env.Data) < shardFrameHeader {
			continue // malformed bridge frame
		}
		to := int(binary.LittleEndian.Uint32(env.Data))
		from := int(binary.LittleEndian.Uint32(env.Data[4:]))
		dst, ok := s.locals[to]
		if !ok {
			continue // mis-addressed frame; the peer shard has a stale map
		}
		select {
		case dst.inbox <- Envelope{From: from, Data: env.Data[shardFrameHeader:]}:
			maxQueueHWM(&dst.qhwm, int64(len(dst.inbox)))
		case <-dst.done:
			// Local node already finished; drop.
		case <-s.tcp.done:
			return
		}
	}
}

// Close shuts down the bridge and every local endpoint.
func (s *shardNet) Close() error {
	s.once.Do(func() {
		for _, ep := range s.locals {
			ep.Close()
		}
		s.tcp.Close()
		s.wg.Wait()
	})
	return nil
}

// Send implements Endpoint: local peers get an in-process copy, remote
// peers go over the owning shard's TCP lane with a routing prefix.
func (e *shardEndpoint) Send(to int, data []byte) error {
	if to < 0 || to >= len(e.net.owners) {
		return fmt.Errorf("runtime: no peer %d", to)
	}
	select {
	case <-e.done:
		return errEndpointClosed
	default:
	}
	owner := e.net.owners[to]
	if owner == e.net.shard {
		dst, ok := e.net.locals[to]
		if !ok {
			return fmt.Errorf("runtime: no peer %d", to)
		}
		return deliverLocal(e.id, data, to, dst.inbox, nil, dst.done, e.done, &dst.qhwm)
	}
	var hdr [shardFrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(to))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(e.id))
	return e.net.tcp.send(owner, hdr[:], data)
}

func (e *shardEndpoint) Inbox() <-chan Envelope { return e.inbox }

func (e *shardEndpoint) Done() <-chan struct{} { return e.done }

func (e *shardEndpoint) Close() error {
	e.once.Do(func() { close(e.done) })
	return nil
}

// SendQueueHWM implements QueueReporter: the deeper of this node's inbox
// high-water mark and the shard bridge's outbound lanes.
func (e *shardEndpoint) SendQueueHWM() int {
	hwm := int(e.qhwm.Load())
	if v := e.net.tcp.SendQueueHWM(); v > hwm {
		hwm = v
	}
	return hwm
}
