package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os/exec"
	"strconv"
	"strings"
	"testing"
	"time"

	"rex/internal/core"
	"rex/internal/gossip"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
	"rex/internal/runtime"
	"rex/internal/topology"
)

// TestShardFlags: a shard run is a batch job with exactly one spelling of
// its position, and every flag that contradicts that is refused by name
// before any dataset or socket exists.
func TestShardFlags(t *testing.T) {
	base := func() daemonOpts {
		return daemonOpts{
			shard: "0/2", peers: "127.0.0.1:1,127.0.0.1:2", n: 4,
			generations: 1, genEpochs: 5, modeStr: "rex", algoStr: "dpsgd",
		}
	}
	for _, tc := range []struct {
		name string
		edit func(*daemonOpts)
		want string
	}{
		{"trailing junk", func(o *daemonOpts) { o.shard = "1/2x" }, "-shard"},
		{"three fields", func(o *daemonOpts) { o.shard = "1/2/8" }, "-shard"},
		{"no slash", func(o *daemonOpts) { o.shard = "1" }, "-shard"},
		{"empty index", func(o *daemonOpts) { o.shard = "/2" }, "-shard"},
		{"signed index", func(o *daemonOpts) { o.shard = "+0/2" }, "-shard"},
		{"negative index", func(o *daemonOpts) { o.shard = "-1/2" }, "-shard"},
		{"index past k", func(o *daemonOpts) { o.shard = "2/2" }, "-shard"},
		{"one shard", func(o *daemonOpts) { o.shard = "0/1" }, "-shard"},
		{"spaces", func(o *daemonOpts) { o.shard = " 0/2" }, "-shard"},
		{"too few peers", func(o *daemonOpts) { o.peers = "127.0.0.1:1" }, "-peers"},
		{"too many peers", func(o *daemonOpts) { o.peers = "a:1,b:2,c:3" }, "-peers"},
		{"empty peer", func(o *daemonOpts) { o.peers = "a:1," }, "-peers"},
		{"fewer nodes than shards", func(o *daemonOpts) { o.n = 1 }, "-n 1"},
		{"http", func(o *daemonOpts) { o.httpAddr = "127.0.0.1:8800" }, "-http"},
		{"data", func(o *daemonOpts) { o.dataDir = t.TempDir() }, "-data"},
		{"resume", func(o *daemonOpts) { o.resume = true }, "-resume"},
		{"nodes", func(o *daemonOpts) { o.nodes = "a:1,b:2" }, "-nodes"},
		{"id", func(o *daemonOpts) { o.id = 1 }, "-id"},
		{"rate limit", func(o *daemonOpts) { o.rateLimit = 5 }, "-rate-limit"},
		{"rate burst", func(o *daemonOpts) { o.rateBurst = 5 }, "-rate-burst"},
		{"ingest queue", func(o *daemonOpts) { o.ingestQueue = 5 }, "-ingest-queue"},
		{"snapshot age", func(o *daemonOpts) { o.maxSnapshotAge = time.Second }, "-max-snapshot-age"},
		{"daemon generations", func(o *daemonOpts) { o.generations = 0 }, "-generations"},
		{"peers without shard", func(o *daemonOpts) { o.shard, o.n = "", 0 }, "-peers"},
		{"n without shard", func(o *daemonOpts) { o.shard, o.peers = "", "" }, "-n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := base()
			tc.edit(&o)
			err := run(o)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run: %v, want an error naming %s", err, tc.want)
			}
		})
	}
}

// TestScaleFlag: a -scale whose dataset Generate cannot build is refused
// by name before any dataset or socket exists, in both process shapes.
func TestScaleFlag(t *testing.T) {
	for _, scale := range []float64{0.01, 0.001, 0} {
		for _, o := range []daemonOpts{
			{shard: "0/2", peers: "127.0.0.1:1,127.0.0.1:2", n: 4, generations: 1},
			{id: 0, nodes: "127.0.0.1:1,127.0.0.1:2"},
		} {
			o.scale, o.genEpochs, o.modeStr, o.algoStr = scale, 5, "rex", "dpsgd"
			if err := run(o); err == nil || !strings.Contains(err.Error(), "-scale") {
				t.Fatalf("scale %v, shard %q: run: %v, want an error naming -scale", scale, o.shard, err)
			}
		}
	}
}

// TestRexdProcesses drives the real binary's two batch shapes on one 4-node
// workload: two -shard processes with -secure, then four single-node
// batch processes. Every node's printed final RMSE must be bit-equal to
// an in-process RunCluster of the same workload.
func TestRexdProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs rexd")
	}
	const (
		n         = 4
		genEpochs = 3
		seed      = 5
		scale     = 0.03
		steps     = 60
		points    = 40
	)
	bin := buildRexd(t)
	common := []string{
		"-generations", "1", "-gen-epochs", fmt.Sprint(genEpochs),
		"-seed", fmt.Sprint(seed), "-scale", fmt.Sprint(scale),
		"-steps", fmt.Sprint(steps), "-share", fmt.Sprint(points),
	}

	// In-process reference: the workload every rexd process derives from
	// those flags, built here independently of rexd's own code.
	spec := movielens.Latest().Scaled(scale)
	spec.Seed = seed
	ds := movielens.Generate(spec)
	tr, te := ds.SplitPerUser(0.7, rand.New(rand.NewSource(seed)))
	trainParts, err := tr.PartitionUsersAcross(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	testParts, err := te.PartitionUsersAcross(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mf.DefaultConfig()
	nodes := make([]*core.Node, n)
	for i := range nodes {
		nodes[i] = core.NewNode(core.Config{
			ID: i, Mode: core.DataSharing, Algo: gossip.DPSGD,
			StepsPerEpoch: steps, SharePoints: points, Seed: seed,
		}, mf.New(mcfg), trainParts[i], testParts[i])
	}
	ref, err := runtime.RunCluster(runtime.ClusterConfig{
		Graph: topology.FullyConnected(n), Nodes: nodes, Epochs: genEpochs,
		Secure:   true,
		NewModel: func() model.Model { return mf.New(mcfg) },
	})
	if err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, argsets [][]string) {
		ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
		defer cancel()
		outs := make([]*bytes.Buffer, len(argsets))
		procs := make([]*exec.Cmd, len(argsets))
		for p, args := range argsets {
			outs[p] = &bytes.Buffer{}
			procs[p] = exec.CommandContext(ctx, bin, append(args, common...)...)
			procs[p].Stdout = outs[p]
			procs[p].Stderr = outs[p]
			if err := procs[p].Start(); err != nil {
				t.Fatal(err)
			}
		}
		for p := range procs {
			if err := procs[p].Wait(); err != nil {
				t.Fatalf("process %d: %v\n%s", p, err, outs[p])
			}
		}
		got := map[int]float64{}
		for _, out := range outs {
			for _, line := range strings.Split(out.String(), "\n") {
				var id int
				var rmse string
				if _, err := fmt.Sscanf(line, "node %d done: final RMSE %s", &id, &rmse); err != nil {
					continue
				}
				v, err := strconv.ParseFloat(rmse, 64)
				if err != nil {
					t.Fatalf("node %d: unparsable RMSE %q", id, rmse)
				}
				if _, dup := got[id]; dup {
					t.Fatalf("node %d reported twice", id)
				}
				got[id] = v
			}
		}
		if len(got) != n {
			for p, out := range outs {
				t.Logf("process %d:\n%s", p, out)
			}
			t.Fatalf("parsed %d node results, want %d", len(got), n)
		}
		for i := 0; i < n; i++ {
			if math.Float64bits(got[i]) != math.Float64bits(ref[i].FinalRMSE) {
				t.Fatalf("node %d: final RMSE %v, in-process cluster %v", i, got[i], ref[i].FinalRMSE)
			}
		}
	}

	t.Run("shards", func(t *testing.T) {
		peers := strings.Join(freePorts(t, 2), ",")
		var argsets [][]string
		for s := 0; s < 2; s++ {
			argsets = append(argsets, []string{"-shard", fmt.Sprintf("%d/2", s), "-peers", peers, "-n", fmt.Sprint(n), "-secure"})
		}
		check(t, argsets)
	})
	t.Run("single-node", func(t *testing.T) {
		addrs := strings.Join(freePorts(t, n), ",")
		var argsets [][]string
		for i := 0; i < n; i++ {
			// The in-process reference runs no failure detector, so a
			// process that starts late must not cost its peers a round.
			argsets = append(argsets, []string{"-id", fmt.Sprint(i), "-nodes", addrs, "-round-timeout", "0"})
		}
		check(t, argsets)
	})
}
