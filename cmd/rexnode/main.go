// Command rexnode runs live REX nodes over TCP — the deployment shape of
// the paper's 4-machine SGX cluster (§IV-C). It has two modes:
//
// Single-node mode: every node of a cluster is started with the same
// -nodes list and dataset seed; node i trains on the i-th partition,
// attests its neighbors, and gossips encrypted raw data (or model
// parameters with -mode ms).
//
// Example 3-node cluster (three shells):
//
//	rexnode -id 0 -nodes 127.0.0.1:7800,127.0.0.1:7801,127.0.0.1:7802
//	rexnode -id 1 -nodes 127.0.0.1:7800,127.0.0.1:7801,127.0.0.1:7802
//	rexnode -id 2 -nodes 127.0.0.1:7800,127.0.0.1:7801,127.0.0.1:7802
//
// Sharded mode: -shard i/of runs a whole block of nodes in this process
// (in-proc transport between them) and bridges cross-shard edges over one
// TCP link per shard pair — the paper's two-enclaves-per-platform layout,
// and the way larger meshes run as real multi-process clusters.
//
// Example 8-node cluster as two 4-node processes (two shells):
//
//	rexnode -shard 0/2 -peers 127.0.0.1:7800,127.0.0.1:7801 -n 8
//	rexnode -shard 1/2 -peers 127.0.0.1:7800,127.0.0.1:7801 -n 8
//
// Note: live-mode attestation simulates the SGX hardware root of trust
// in-process (each rexnode manufactures its platform from the shared
// -seed), standing in for the fused keys real hardware provides.
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"

	"rex/internal/attest"
	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/faultnet"
	"rex/internal/gossip"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
	"rex/internal/runtime"
	"rex/internal/topology"
)

type options struct {
	epochs   int
	mode     core.Mode
	algo     gossip.Algo
	secure   bool
	seed     int64
	scale    float64
	points   int
	steps    int
	scenario *faultnet.Scenario
}

func main() {
	var (
		id       = flag.Int("id", 0, "this node's index into -nodes (single-node mode)")
		nodes    = flag.String("nodes", "", "comma-separated host:port of every node, in id order (single-node mode)")
		shard    = flag.String("shard", "", "i/of: run shard i of a multi-process cluster (with -peers and -n)")
		peers    = flag.String("peers", "", "comma-separated host:port of every shard's bridge, in shard order (sharded mode)")
		nTotal   = flag.Int("n", 0, "total node count across all shards (sharded mode)")
		epochs   = flag.Int("epochs", 50, "training epochs")
		modeStr  = flag.String("mode", "rex", "sharing mode: rex (raw data) or ms (model parameters)")
		algoStr  = flag.String("algo", "dpsgd", "dissemination: dpsgd or rmw")
		secure   = flag.Bool("secure", true, "attest peers and encrypt gossip (REX); false = native plaintext")
		seed     = flag.Int64("seed", 1, "shared dataset/partition seed (must match across the cluster)")
		scale    = flag.Float64("scale", 0.1, "MovieLens-Latest scale factor for the synthetic dataset")
		points   = flag.Int("share", 100, "raw data points shared per epoch")
		steps    = flag.Int("steps", 300, "SGD steps per epoch")
		scenario = flag.String("scenario", "", "chaos scenario: a canned name (see internal/faultnet.Canned) or a JSON spec file — every process of the cluster must pass the same spec")
	)
	flag.Parse()

	mode, err := core.ParseMode(*modeStr)
	if err != nil {
		log.Fatalf("rexnode: %v", err)
	}
	algo, err := gossip.ParseAlgo(*algoStr)
	if err != nil {
		log.Fatalf("rexnode: %v", err)
	}
	opts := options{
		epochs: *epochs, mode: mode, algo: algo, secure: *secure,
		seed: *seed, scale: *scale, points: *points, steps: *steps,
	}
	if *scenario != "" {
		sc, err := faultnet.Resolve(*scenario)
		if err != nil {
			log.Fatalf("rexnode: %v", err)
		}
		opts.scenario = sc
		log.Printf("chaos scenario %q (seed %d) active", sc.Name, sc.Seed)
	}
	if *shard != "" {
		runSharded(*shard, *peers, *nTotal, opts)
		return
	}
	runSingle(*id, *nodes, opts)
}

// buildParts generates the deterministic shared workload: every process
// derives the same dataset and partitioning from the seed and takes the
// partitions of the nodes it owns (Algorithm 1: read_dataset).
func buildParts(n int, o options) (train, test [][]dataset.Rating) {
	spec := movielens.Latest().Scaled(o.scale)
	spec.Seed = o.seed
	ds := movielens.Generate(spec)
	rng := rand.New(rand.NewSource(o.seed))
	tr, te := ds.SplitPerUser(0.7, rng)
	trainParts, err := tr.PartitionUsersAcross(n, rand.New(rand.NewSource(o.seed)))
	if err != nil {
		log.Fatalf("rexnode: partitioning: %v", err)
	}
	testParts, err := te.PartitionUsersAcross(n, rand.New(rand.NewSource(o.seed)))
	if err != nil {
		log.Fatalf("rexnode: partitioning: %v", err)
	}
	return trainParts, testParts
}

func newNode(i int, o options, mcfg mf.Config, train, test [][]dataset.Rating) *core.Node {
	return core.NewNode(core.Config{
		ID: i, Mode: o.mode, Algo: o.algo,
		StepsPerEpoch: o.steps, SharePoints: o.points, Seed: o.seed,
	}, mf.New(mcfg), train[i], test[i])
}

// collateral derives the attestation infrastructure and one platform per
// node from the shared seed, so every process of the cluster verifies
// against the same collateral — the in-software analogue of
// hardware-fused provisioning keys.
func collateral(n int, seed int64) (*attest.Infrastructure, []*attest.Platform) {
	inf := attest.NewInfrastructure()
	entropy := rand.New(rand.NewSource(seed))
	platforms := make([]*attest.Platform, n)
	for i := 0; i < n; i++ {
		p, err := inf.NewPlatform(entropy)
		if err != nil {
			log.Fatalf("rexnode: platform: %v", err)
		}
		platforms[i] = p
	}
	return inf, platforms
}

func runSingle(id int, nodesList string, o options) {
	addrs := strings.Split(nodesList, ",")
	if len(addrs) < 2 {
		log.Fatal("rexnode: -nodes needs at least two addresses")
	}
	if id < 0 || id >= len(addrs) {
		log.Fatalf("rexnode: -id %d out of range for %d nodes", id, len(addrs))
	}
	n := len(addrs)
	trainParts, testParts := buildParts(n, o)
	mcfg := mf.DefaultConfig()
	node := newNode(id, o, mcfg, trainParts, testParts)

	peers := make(map[int]string, n)
	var neighbors []int
	for i, a := range addrs {
		if i == id {
			continue
		}
		peers[i] = a
		neighbors = append(neighbors, i)
	}
	ep, err := runtime.NewTCPNet(id, addrs[id], peers)
	if err != nil {
		log.Fatalf("rexnode: %v", err)
	}
	defer ep.Close()

	cfg := runtime.Config{
		Node: node, Endpoint: ep, Neighbors: neighbors, Epochs: o.epochs,
		Secure:   o.secure,
		NewModel: func() model.Model { return mf.New(mcfg) },
		OnEpoch: func(e int, rmse float64) {
			if e%10 == 0 || e == o.epochs-1 {
				log.Printf("node %d epoch %3d: local test RMSE %.4f", id, e, rmse)
			}
		},
	}
	if o.secure {
		inf, platforms := collateral(n, o.seed)
		cfg.Platform = platforms[id]
		cfg.Infra = inf
		cfg.Measurement = attest.MeasureCode([]byte("rex-enclave-v1"))
		cfg.Entropy = rand.New(rand.NewSource(o.seed + int64(id) + 1000))
	}
	var faultLog faultnet.Log
	if o.scenario != nil {
		o.scenario.ApplyRun(&cfg, &faultLog)
	}

	stats, err := runtime.Run(cfg)
	if err != nil {
		log.Fatalf("rexnode: %v", err)
	}
	printStats(id, stats)
}

func runSharded(shardSpec, peersList string, n int, o options) {
	var shard, numShards int
	if _, err := fmt.Sscanf(shardSpec, "%d/%d", &shard, &numShards); err != nil ||
		numShards < 2 || shard < 0 || shard >= numShards {
		log.Fatalf("rexnode: -shard wants i/of with 0 <= i < of and of >= 2, got %q", shardSpec)
	}
	addrs := strings.Split(peersList, ",")
	if len(addrs) != numShards {
		log.Fatalf("rexnode: -peers lists %d bridges for %d shards", len(addrs), numShards)
	}
	if n < numShards {
		log.Fatalf("rexnode: -n %d cannot be split across %d shards", n, numShards)
	}
	trainParts, testParts := buildParts(n, o)
	mcfg := mf.DefaultConfig()
	nodes := make([]*core.Node, n)
	lo, hi := runtime.ShardRange(n, numShards, shard)
	for i := lo; i < hi; i++ {
		nodes[i] = newNode(i, o, mcfg, trainParts, testParts)
	}
	shardAddrs := make(map[int]string, numShards)
	for s, a := range addrs {
		shardAddrs[s] = a
	}
	cfg := runtime.ShardConfig{
		Graph: topology.FullyConnected(n), Nodes: nodes,
		Shard: shard, NumShards: numShards,
		ListenAddr: addrs[shard], ShardAddrs: shardAddrs,
		Epochs:   o.epochs,
		Secure:   o.secure,
		NewModel: func() model.Model { return mf.New(mcfg) },
		OnEpoch: func(node, e int, rmse float64) {
			if e%10 == 0 || e == o.epochs-1 {
				log.Printf("shard %d node %d epoch %3d: local test RMSE %.4f", shard, node, e, rmse)
			}
		},
	}
	if o.secure {
		cfg.Infra, cfg.Platforms = collateral(n, o.seed)
	}
	var faultLog faultnet.Log
	if o.scenario != nil {
		o.scenario.ApplyShard(&cfg, &faultLog)
	}
	stats, err := runtime.RunShard(cfg)
	if err != nil {
		log.Fatalf("rexnode: %v", err)
	}
	for i := lo; i < hi; i++ {
		printStats(i, stats[i])
	}
}

func printStats(id int, s *runtime.Stats) {
	saved := s.WireRawBytes - s.BytesOnWire
	if saved < 0 {
		saved = 0
	}
	fmt.Printf("node %d done: final RMSE %.10f | merge %v train %v share %v test %v | seal %v open %v wire %v | in %d B out %d B on-wire %d B | delta saved %d B refs %d explicit %d resyncs %d | attested %d | lost %d rejoined %d | faults dropped %d delayed %d | queue hwm %d\n",
		id, s.FinalRMSE, s.Merge, s.Train, s.Share, s.Test,
		s.Seal, s.Open, s.Wire, s.BytesIn, s.BytesOut, s.BytesOnWire,
		saved, s.DeltaRefs, s.DeltaExplicit, s.Resyncs, s.Attested,
		s.PeersLost, s.Rejoins, s.DroppedFrames, s.DelayedFrames, s.SendQueueHWM)
}
