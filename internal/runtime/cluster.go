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

// ClusterConfig runs a whole REX deployment in one process over the
// in-proc transport — the shape of the paper's 8-node experiment with two
// enclaves per physical platform (§IV-C).
type ClusterConfig struct {
	Graph  *topology.Graph
	Nodes  []*core.Node
	Epochs int
	// Secure enables attestation + encryption.
	Secure bool
	// NodesPerPlatform groups enclaves onto simulated SGX machines
	// (paper: 2 processes per machine). Defaults to 2.
	NodesPerPlatform int
	// NewModel supplies the models model-sharing payloads are decoded
	// into (see Config.NewModel). It must be safe for concurrent calls:
	// the nodes build their engines in parallel.
	NewModel func() model.Model
	// Entropy defaults to crypto/rand.Reader; a non-nil reader is shared
	// by all nodes and must be safe for concurrent reads.
	Entropy io.Reader
	// RoundTimeout enables per-round failure detection (see
	// Config.RoundTimeout).
	RoundTimeout time.Duration
	// PeerGrace, Rejoin and Absent configure failure-detector grace,
	// dropped-peer readmission and oracle churn (see Config); WrapEndpoint,
	// when set, wraps each node's transport — the hook internal/faultnet
	// uses to inject its fault schedule under a whole cluster.
	PeerGrace    int
	Rejoin       bool
	Absent       func(node, epoch int) bool
	SkipExpect   func(self, from, epoch int) bool
	WrapEndpoint func(node int, ep Endpoint) Endpoint
}

// RunCluster executes every node concurrently and returns their stats in
// node order.
func RunCluster(cfg ClusterConfig) ([]*Stats, error) {
	n := cfg.Graph.N()
	if len(cfg.Nodes) != n {
		return nil, fmt.Errorf("runtime: %d nodes for %d-vertex graph", len(cfg.Nodes), n)
	}
	if cfg.NodesPerPlatform <= 0 {
		cfg.NodesPerPlatform = 2
	}
	eps := NewChanNet(n)
	if cfg.WrapEndpoint != nil {
		for i := range eps {
			eps[i] = cfg.WrapEndpoint(i, eps[i])
		}
	}

	var inf *attest.Infrastructure
	platforms := make([]*attest.Platform, n)
	if cfg.Secure {
		inf = attest.NewInfrastructure()
		var current *attest.Platform
		for i := 0; i < n; i++ {
			if i%cfg.NodesPerPlatform == 0 {
				entropy := cfg.Entropy
				if entropy == nil {
					entropy = rand.Reader
				}
				p, err := inf.NewPlatform(entropy)
				if err != nil {
					return nil, err
				}
				current = p
			}
			platforms[i] = current
		}
	}

	stats := make([]*Stats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var skip func(from, epoch int) bool
			if cfg.SkipExpect != nil {
				skip = func(from, epoch int) bool { return cfg.SkipExpect(i, from, epoch) }
			}
			st, err := Run(Config{
				Node:         cfg.Nodes[i],
				Endpoint:     eps[i],
				Neighbors:    cfg.Graph.Neighbors(i),
				Epochs:       cfg.Epochs,
				Secure:       cfg.Secure,
				Platform:     platforms[i],
				Infra:        inf,
				Measurement:  enclaveMeasurement,
				Entropy:      cfg.Entropy,
				NewModel:     cfg.NewModel,
				RoundTimeout: cfg.RoundTimeout,
				PeerGrace:    cfg.PeerGrace,
				Rejoin:       cfg.Rejoin,
				Absent:       cfg.Absent,
				SkipExpect:   skip,
			})
			stats[i], errs[i] = st, err
		}(i)
	}
	wg.Wait()
	for i := range eps {
		eps[i].Close()
	}
	for i, err := range errs {
		if err != nil {
			return stats, fmt.Errorf("runtime: node %d: %w", i, err)
		}
	}
	return stats, nil
}
