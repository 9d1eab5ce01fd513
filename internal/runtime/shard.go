package runtime

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rex/internal/attest"
	"rex/internal/core"
	"rex/internal/model"
	"rex/internal/topology"
)

// This file is the multi-process cluster layer: a topology is partitioned
// into contiguous shards, each shard runs its nodes inside one OS process
// over in-process channels, and cross-shard edges are bridged over a
// single TCP link per shard pair. This is how the paper's 8-node
// two-enclaves-per-platform deployment — and larger meshes — run as real
// multi-process clusters (cmd/rexnode -shard i/of).

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

// ShardNet is one shard's transport: an Endpoint per local node, local
// edges delivered in-process, cross-shard edges multiplexed over one
// TCPNet whose id space is shard indices. All of TCPNet's per-peer lane
// properties carry over — each remote shard gets its own outbound lane.
type ShardNet struct {
	shard, numShards int
	owners           []int
	tcp              *TCPNet
	locals           map[int]*shardEndpoint
	wg               sync.WaitGroup
	once             sync.Once
}

// shardEndpoint is one local node's port on a ShardNet.
type shardEndpoint struct {
	net   *ShardNet
	id    int
	inbox chan Envelope
	done  chan struct{}
	once  sync.Once
	qhwm  atomic.Int64
}

// NewShardNet starts the transport for shard `shard` of `numShards` over
// an n-node topology: it listens on listenAddr for other shards and dials
// them at shardAddrs (shard index -> host:port). Endpoints for the local
// node block are available via Endpoint.
func NewShardNet(n, numShards, shard int, listenAddr string, shardAddrs map[int]string) (*ShardNet, error) {
	if numShards < 1 || shard < 0 || shard >= numShards {
		return nil, fmt.Errorf("runtime: shard %d of %d out of range", shard, numShards)
	}
	peers := make(map[int]string, len(shardAddrs))
	for s, addr := range shardAddrs {
		if s != shard {
			peers[s] = addr
		}
	}
	tcp, err := NewTCPNet(shard, listenAddr, peers)
	if err != nil {
		return nil, err
	}
	s := &ShardNet{
		shard: shard, numShards: numShards,
		owners: shardOwners(n, numShards),
		tcp:    tcp,
		locals: make(map[int]*shardEndpoint),
	}
	lo, hi := ShardRange(n, numShards, shard)
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

// Addr returns the bridge's bound listen address.
func (s *ShardNet) Addr() string { return s.tcp.Addr().String() }

// Endpoint returns the transport port of a local node.
func (s *ShardNet) Endpoint(node int) (Endpoint, error) {
	ep, ok := s.locals[node]
	if !ok {
		lo, hi := ShardRange(len(s.owners), s.numShards, s.shard)
		return nil, fmt.Errorf("runtime: node %d is not in shard %d (owns [%d,%d))", node, s.shard, lo, hi)
	}
	return ep, nil
}

// demux routes inbound cross-shard frames to the destination node's inbox.
func (s *ShardNet) demux() {
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
func (s *ShardNet) Close() error {
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
		return deliverLocal(e.id, data, to, dst.inbox, dst.done, e.done, &dst.qhwm)
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

// ShardConfig drives one shard of a multi-process REX deployment. Every
// process is started with the same Graph (and, when Secure, the same
// seed-derived attestation collateral); shard s runs the node block
// ShardRange(Graph.N(), NumShards, s).
type ShardConfig struct {
	Graph *topology.Graph
	// Nodes is the full n-length slice; only this shard's block must be
	// populated (other entries may be nil).
	Nodes []*core.Node
	// Shard / NumShards locate this process in the deployment.
	Shard, NumShards int
	// ListenAddr is this shard's bridge address; ShardAddrs maps every
	// shard index (including this one) to its bridge host:port.
	ListenAddr string
	ShardAddrs map[int]string

	Epochs int
	Secure bool
	// Platforms holds attestation platforms for all n nodes and Infra the
	// shared infrastructure root. Every process must derive identical
	// collateral (e.g. from a shared seed, as cmd/rexnode does); only the
	// local block's platforms are used. Required when Secure.
	Platforms []*attest.Platform
	Infra     *attest.Infrastructure
	// NewModel supplies the models model-sharing payloads are decoded into
	// (safe for concurrent calls: the shard's nodes start in parallel).
	NewModel func() model.Model
	// RoundTimeout enables per-round failure detection.
	RoundTimeout time.Duration
	// PeerGrace, Rejoin and Absent configure failure-detector grace,
	// dropped-peer readmission and oracle churn (see Config); WrapEndpoint
	// wraps each local node's transport (internal/faultnet's injection
	// hook). Every shard process must be given the same scenario for the
	// schedule to stay globally consistent.
	PeerGrace    int
	Rejoin       bool
	Absent       func(node, epoch int) bool
	SkipExpect   func(self, from, epoch int) bool
	WrapEndpoint func(node int, ep Endpoint) Endpoint
	// OnEpoch, when set, observes every local node's epochs.
	OnEpoch func(node, epoch int, rmse float64)
}

// RunShard executes this shard's nodes concurrently, bridged to the other
// shards over TCP, and returns their stats keyed by node id.
func RunShard(cfg ShardConfig) (map[int]*Stats, error) {
	n := cfg.Graph.N()
	if len(cfg.Nodes) != n {
		return nil, fmt.Errorf("runtime: %d nodes for %d-vertex graph", len(cfg.Nodes), n)
	}
	if cfg.Secure && (len(cfg.Platforms) != n || cfg.Infra == nil) {
		return nil, fmt.Errorf("runtime: secure shard requires shared infra and %d platforms", n)
	}
	lo, hi := ShardRange(n, cfg.NumShards, cfg.Shard)
	for i := lo; i < hi; i++ {
		if cfg.Nodes[i] == nil {
			return nil, fmt.Errorf("runtime: shard %d owns node %d but it is nil", cfg.Shard, i)
		}
	}
	net, err := NewShardNet(n, cfg.NumShards, cfg.Shard, cfg.ListenAddr, cfg.ShardAddrs)
	if err != nil {
		return nil, err
	}
	defer net.Close()

	type result struct {
		node int
		st   *Stats
		err  error
	}
	results := make(chan result, hi-lo)
	for i := lo; i < hi; i++ {
		ep, err := net.Endpoint(i)
		if err != nil {
			return nil, err
		}
		if cfg.WrapEndpoint != nil {
			ep = cfg.WrapEndpoint(i, ep)
		}
		go func(i int, ep Endpoint) {
			var platform *attest.Platform
			if cfg.Secure {
				platform = cfg.Platforms[i]
			}
			var onEpoch func(int, float64)
			if cfg.OnEpoch != nil {
				onEpoch = func(e int, rmse float64) { cfg.OnEpoch(i, e, rmse) }
			}
			var skip func(from, epoch int) bool
			if cfg.SkipExpect != nil {
				skip = func(from, epoch int) bool { return cfg.SkipExpect(i, from, epoch) }
			}
			st, err := Run(Config{
				Node:         cfg.Nodes[i],
				Endpoint:     ep,
				Neighbors:    cfg.Graph.Neighbors(i),
				Epochs:       cfg.Epochs,
				Secure:       cfg.Secure,
				Platform:     platform,
				Infra:        cfg.Infra,
				Measurement:  enclaveMeasurement,
				NewModel:     cfg.NewModel,
				OnEpoch:      onEpoch,
				RoundTimeout: cfg.RoundTimeout,
				PeerGrace:    cfg.PeerGrace,
				Rejoin:       cfg.Rejoin,
				Absent:       cfg.Absent,
				SkipExpect:   skip,
			})
			results <- result{i, st, err}
		}(i, ep)
	}
	stats := make(map[int]*Stats, hi-lo)
	var firstErr error
	for i := lo; i < hi; i++ {
		res := <-results
		if res.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("runtime: node %d: %w", res.node, res.err)
		}
		stats[res.node] = res.st
	}
	return stats, firstErr
}
