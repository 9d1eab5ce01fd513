package runtime

import (
	"math"
	"math/rand"
	"net"
	"testing"
	"time"

	"rex/internal/core"
	"rex/internal/gossip"
)

func TestShardRange(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{8, 2}, {5, 2}, {7, 3}, {4, 4}, {9, 1}} {
		owners := shardOwners(tc.n, tc.k)
		covered := 0
		for s := 0; s < tc.k; s++ {
			lo, hi := ShardRange(tc.n, tc.k, s)
			if hi < lo {
				t.Fatalf("n=%d k=%d s=%d: inverted range [%d,%d)", tc.n, tc.k, s, lo, hi)
			}
			for i := lo; i < hi; i++ {
				if owners[i] != s {
					t.Fatalf("n=%d k=%d: node %d owner %d, range says %d", tc.n, tc.k, i, owners[i], s)
				}
				covered++
			}
		}
		if covered != tc.n {
			t.Fatalf("n=%d k=%d: ranges cover %d nodes", tc.n, tc.k, covered)
		}
	}
}

// freePorts reserves n distinct localhost TCP ports. The listeners are
// closed before returning, so a parallel process could in principle steal
// one — acceptable in tests.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestRunClusterRejectsBadShard: a shard's configuration errors surface
// before any socket is opened.
func TestRunClusterRejectsBadShard(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*ClusterConfig)
	}{
		{"shard past k", func(c *ClusterConfig) { c.Shard = 2 }},
		{"negative shard", func(c *ClusterConfig) { c.Shard = -1 }},
		{"own node nil", func(c *ClusterConfig) { c.Nodes[0] = nil }},
		{"secure without collateral", func(c *ClusterConfig) { c.Secure = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := clusterWorkload(t, 4, core.DataSharing, gossip.DPSGD, 1)
			cfg.ShardAddrs = []string{"127.0.0.1:1", "127.0.0.1:2"}
			tc.edit(&cfg)
			if _, err := RunCluster(cfg); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

// TestShardedClusterMatchesInProc runs the same secure workload once as a
// single-process RunCluster and once as two TCP-bridged shards, and
// requires bit-identical per-epoch RMSE trajectories — the ISSUE-3
// acceptance that sharding changes the transport, never the learning.
func TestShardedClusterMatchesInProc(t *testing.T) {
	const (
		n      = 6
		shards = 2
		epochs = 5
	)
	ref := clusterWorkload(t, n, core.DataSharing, gossip.DPSGD, epochs)
	ref.Secure = true
	refStats, err := RunCluster(ref)
	if err != nil {
		t.Fatal(err)
	}

	// Same workload again (fresh nodes), now split across two shards
	// bridged over localhost TCP. Both shards share seed-derived
	// collateral, as two rexd -shard processes would.
	cw := clusterWorkload(t, n, core.DataSharing, gossip.DPSGD, epochs)
	cw.Secure = true
	if cw.Infra, cw.Platforms, err = Collateral(n, rand.New(rand.NewSource(77))); err != nil {
		t.Fatal(err)
	}
	cw.ShardAddrs = freePorts(t, shards)

	type result struct {
		stats []*Stats
		err   error
	}
	results := make(chan result, shards)
	for s := 0; s < shards; s++ {
		cfg := cw
		cfg.Shard = s
		go func() {
			stats, err := RunCluster(cfg)
			results <- result{stats, err}
		}()
	}
	sharded := make([]*Stats, n)
	for s := 0; s < shards; s++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatal(r.err)
			}
			for id, st := range r.stats {
				if st != nil {
					sharded[id] = st
				}
			}
		case <-time.After(60 * time.Second):
			t.Fatal("sharded cluster timed out")
		}
	}

	for i := 0; i < n; i++ {
		st := sharded[i]
		if st == nil {
			t.Fatalf("no shard ran node %d", i)
		}
		if st.Attested != n-1 {
			t.Fatalf("sharded node %d attested %d of %d", i, st.Attested, n-1)
		}
		if len(st.RMSE) != len(refStats[i].RMSE) {
			t.Fatalf("node %d: %d vs %d epochs", i, len(st.RMSE), len(refStats[i].RMSE))
		}
		for e := range st.RMSE {
			if math.Float64bits(st.RMSE[e]) != math.Float64bits(refStats[i].RMSE[e]) {
				t.Fatalf("node %d epoch %d: sharded %v != in-proc %v", i, e, st.RMSE[e], refStats[i].RMSE[e])
			}
		}
	}
}
