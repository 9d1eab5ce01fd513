package runtime

import (
	"crypto/rand"
	"fmt"
	"io"
	"sync"
	"time"

	"rex/internal/attest"
	"rex/internal/core"
	"rex/internal/model"
	"rex/internal/topology"
)

// enclaveMeasurement is the simulated enclave identity all cluster drivers
// attest against.
var enclaveMeasurement = attest.MeasureCode([]byte("rex-enclave-v1"))

// nodesPerPlatform groups enclaves onto simulated SGX machines: the paper
// runs two processes per machine (§IV-C).
const nodesPerPlatform = 2

// Collateral manufactures the attestation infrastructure and the platforms
// of an n-node cluster, nodesPerPlatform consecutive nodes to a platform,
// with every key drawn from entropy. Equal entropy yields equal collateral
// (attest.Infrastructure.NewPlatform is a pure function of its reads), so
// the processes of one cluster agree on it by reading one seed's stream.
func Collateral(n int, entropy io.Reader) (*attest.Infrastructure, []*attest.Platform, error) {
	inf := attest.NewInfrastructure()
	platforms := make([]*attest.Platform, n)
	for i := range platforms {
		if i%nodesPerPlatform != 0 {
			platforms[i] = platforms[i-1]
			continue
		}
		p, err := inf.NewPlatform(entropy)
		if err != nil {
			return nil, nil, err
		}
		platforms[i] = p
	}
	return inf, platforms, nil
}

// ClusterConfig runs a REX deployment over Graph: all of it in this
// process over the in-proc transport — the shape of the paper's 8-node
// experiment with two enclaves per physical platform (§IV-C) — or, when
// ShardAddrs is set, one shard of it, a contiguous node block whose
// cross-shard edges are bridged over TCP to the other shards' processes.
type ClusterConfig struct {
	Graph *topology.Graph
	// Nodes is the full n-length slice; a shard needs only its own block
	// populated (other entries may be nil).
	Nodes  []*core.Node
	Epochs int
	// Secure enables attestation + encryption.
	Secure bool
	// Infra and Platforms are the attestation collateral, one platform per
	// node (see Collateral). When Secure and Infra is nil, RunCluster
	// derives them from crypto/rand. A shard cannot: every shard of the
	// cluster must verify against the same collateral.
	Infra     *attest.Infrastructure
	Platforms []*attest.Platform
	// NewModel supplies the models model-sharing payloads are decoded
	// into (see Config.NewModel). It must be safe for concurrent calls:
	// the nodes build their engines in parallel.
	NewModel func() model.Model
	// RoundTimeout enables per-round failure detection (see
	// Config.RoundTimeout).
	RoundTimeout time.Duration
	// PeerGrace, Rejoin and Absent configure failure-detector grace,
	// dropped-peer readmission and oracle churn (see Config); WrapEndpoint,
	// when set, wraps each local node's transport — the hook
	// internal/faultnet uses to inject its fault schedule under a whole
	// cluster. Every shard must be given the same scenario for the
	// schedule to stay globally consistent.
	PeerGrace    int
	Rejoin       bool
	Absent       func(node, epoch int) bool
	SkipExpect   func(self, from, epoch int) bool
	WrapEndpoint func(node int, ep Endpoint) Endpoint
	// OnEpoch, when set, observes every local node's epochs.
	OnEpoch func(node, epoch int, rmse float64)
	// ShardAddrs, when set, lists every shard's bridge host:port in shard
	// order, this one's included. The process then runs shard Shard: node
	// block ShardRange(n, len(ShardAddrs), Shard), listening for the other
	// shards on ShardAddrs[Shard].
	Shard      int
	ShardAddrs []string
}

// RunCluster executes this process's nodes concurrently — every node, or
// shard Shard's block — and returns their stats in node order, with nil
// entries for the nodes other shards run.
func RunCluster(cfg ClusterConfig) ([]*Stats, error) {
	n := cfg.Graph.N()
	if len(cfg.Nodes) != n {
		return nil, fmt.Errorf("runtime: %d nodes for %d-vertex graph", len(cfg.Nodes), n)
	}
	sharded := len(cfg.ShardAddrs) > 0
	lo, hi := 0, n
	if sharded {
		if cfg.Shard < 0 || cfg.Shard >= len(cfg.ShardAddrs) {
			return nil, fmt.Errorf("runtime: shard %d of %d out of range", cfg.Shard, len(cfg.ShardAddrs))
		}
		lo, hi = ShardRange(n, len(cfg.ShardAddrs), cfg.Shard)
	}
	for i := lo; i < hi; i++ {
		if cfg.Nodes[i] == nil {
			return nil, fmt.Errorf("runtime: node %d runs here but is nil", i)
		}
	}
	inf, platforms := cfg.Infra, cfg.Platforms
	if cfg.Secure && inf == nil {
		if sharded {
			return nil, fmt.Errorf("runtime: a secure shard needs the cluster's shared Infra and Platforms")
		}
		var err error
		if inf, platforms, err = Collateral(n, rand.Reader); err != nil {
			return nil, err
		}
	}
	if cfg.Secure && len(platforms) != n {
		return nil, fmt.Errorf("runtime: %d platforms for %d nodes", len(platforms), n)
	}

	eps := make([]Endpoint, n)
	if sharded {
		net, err := newShardNet(n, cfg.Shard, cfg.ShardAddrs)
		if err != nil {
			return nil, err
		}
		defer net.Close()
		for i := lo; i < hi; i++ {
			eps[i] = net.locals[i]
		}
	} else {
		copy(eps, NewChanNet(n))
	}
	if cfg.WrapEndpoint != nil {
		for i := lo; i < hi; i++ {
			eps[i] = cfg.WrapEndpoint(i, eps[i])
		}
	}

	stats := make([]*Stats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := lo; i < hi; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var platform *attest.Platform
			if cfg.Secure {
				platform = platforms[i]
			}
			var onEpoch func(int, float64)
			if cfg.OnEpoch != nil {
				onEpoch = func(e int, rmse float64) { cfg.OnEpoch(i, e, rmse) }
			}
			var skip func(from, epoch int) bool
			if cfg.SkipExpect != nil {
				skip = func(from, epoch int) bool { return cfg.SkipExpect(i, from, epoch) }
			}
			stats[i], errs[i] = Run(Config{
				Node:         cfg.Nodes[i],
				Endpoint:     eps[i],
				Neighbors:    cfg.Graph.Neighbors(i),
				Epochs:       cfg.Epochs,
				Secure:       cfg.Secure,
				Platform:     platform,
				Infra:        inf,
				Measurement:  enclaveMeasurement,
				NewModel:     cfg.NewModel,
				OnEpoch:      onEpoch,
				RoundTimeout: cfg.RoundTimeout,
				PeerGrace:    cfg.PeerGrace,
				Rejoin:       cfg.Rejoin,
				Absent:       cfg.Absent,
				SkipExpect:   skip,
			})
		}(i)
	}
	wg.Wait()
	for i := lo; i < hi; i++ {
		eps[i].Close()
	}
	for i, err := range errs {
		if err != nil {
			return stats, fmt.Errorf("runtime: node %d: %w", i, err)
		}
	}
	return stats, nil
}
