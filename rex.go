// Package rex is a Go reproduction of "TEE-based decentralized recommender
// systems: The raw data sharing redemption" (Dhasade, Dresevic, Kermarrec,
// Pires — IPDPS 2022). REX is a decentralized collaborative-filtering
// recommender in which nodes exchange raw rating triplets instead of model
// parameters; trusted execution environments (SGX enclaves, simulated
// here) make that safe by concealing alien raw data even from the machine
// owner, after mutual attestation and over encrypted channels.
//
// The package exposes four layers:
//
//   - datasets: MovieLens-shaped synthetic generation, splitting and
//     partitioning (GenerateMovieLens, per-user / multi-user partitions);
//   - models: biased matrix factorization (NewMF) and a DNN recommender
//     (NewDNN), both implementing the Model interface;
//   - topologies: small-world, Erdős–Rényi and fully connected graphs;
//   - execution: a deterministic virtual-time simulator (Simulate) that
//     reproduces the paper's experiments — node steps within an epoch fan
//     out across a worker pool (SimConfig.Workers, default GOMAXPROCS)
//     with results bit-identical to a sequential run for any fixed seed —
//     and a live concurrent runtime (see internal/runtime via the rexd
//     command) with real attestation and AES-GCM channels.
//
// A minimal comparison of REX against classical model sharing:
//
//	ds := rex.GenerateMovieLens(rex.MovieLensLatest().Scaled(0.1))
//	train, test := ds.SplitPerUser(0.7, rng)
//	... partition, build graph, then:
//	res, err := rex.Simulate(rex.SimConfig{ Mode: rex.DataSharing, ... })
//
// See examples/ for complete programs and cmd/rexbench for the harness
// that regenerates every table and figure of the paper.
package rex

import (
	"math/rand"

	"rex/internal/baseline"
	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/enclave"
	"rex/internal/gossip"
	"rex/internal/knn"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
	"rex/internal/nn"
	"rex/internal/peersampling"
	"rex/internal/rank"
	"rex/internal/runtime"
	"rex/internal/sim"
	"rex/internal/topology"
)

// Rating is one user-item interaction triplet.
type Rating = dataset.Rating

// Dataset is a rating collection with its id-space bounds.
type Dataset = dataset.Dataset

// Store is the deduplicating raw-data store enclaves keep in protected
// memory.
type Store = dataset.Store

// NewStore creates a store seeded with initial ratings.
func NewStore(initial []Rating) *Store { return dataset.NewStore(initial) }

// NewDataset builds a Dataset from ratings.
func NewDataset(ratings []Rating) *Dataset { return dataset.New(ratings) }

// MovieLensSpec parameterizes the synthetic MovieLens-shaped generator.
type MovieLensSpec = movielens.Spec

// MovieLensLatest is the spec matching the paper's MovieLens Latest row of
// Table I (100k ratings, 9k items, 610 users).
func MovieLensLatest() MovieLensSpec { return movielens.Latest() }

// MovieLens25MCapped matches the truncated MovieLens 25M row of Table I
// (2.25M ratings, 28.8k items, 15k users).
func MovieLens25MCapped() MovieLensSpec { return movielens.TwentyFiveMCapped() }

// GenerateMovieLens synthesizes a dataset from the spec.
func GenerateMovieLens(spec MovieLensSpec) *Dataset { return movielens.Generate(spec) }

// Model is the recommender contract shared by MF and the DNN.
type Model = model.Model

// RMSE computes the clamped root-mean-square error of a model on data.
func RMSE(m Model, data []Rating) float64 { return model.RMSE(m, data) }

// MFConfig holds matrix-factorization hyperparameters (paper §IV-A3a).
type MFConfig = mf.Config

// DefaultMFConfig returns the paper's MF hyperparameters: k=10, η=0.005,
// λ=0.1.
func DefaultMFConfig() MFConfig { return mf.DefaultConfig() }

// NewMF creates a biased matrix-factorization model.
func NewMF(cfg MFConfig) Model { return mf.New(cfg) }

// DNNConfig describes the DNN recommender (paper §IV-A3b).
type DNNConfig = nn.Config

// DefaultDNNConfig returns the paper's DNN hyperparameters for an id
// space: embeddings of 20, four hidden layers, Adam 1e-4, weight decay
// 1e-5.
func DefaultDNNConfig(numUsers, numItems int) DNNConfig {
	return nn.DefaultConfig(numUsers, numItems)
}

// NewDNN creates the DNN recommender.
func NewDNN(cfg DNNConfig) Model { return nn.NewNet(cfg) }

// Graph is an undirected communication topology.
type Graph = topology.Graph

// SmallWorld builds the paper's small-world topology (k close connections,
// pFar far-fetched probability; §IV-A2a uses k=6, pFar=0.03).
func SmallWorld(n, k int, pFar float64, rng *rand.Rand) *Graph {
	return topology.SmallWorld(n, k, pFar, rng)
}

// ErdosRenyi builds a connected G(n, p) random graph (§IV-A2b uses p=0.05).
func ErdosRenyi(n int, p float64, rng *rand.Rand) *Graph {
	return topology.ErdosRenyi(n, p, rng)
}

// FullyConnected builds the complete graph (the paper's 8-node SGX
// deployment, §IV-C).
func FullyConnected(n int) *Graph { return topology.FullyConnected(n) }

// Topology is the read-only neighbor view the simulator consumes: either a
// materialized *Graph or a streamed generator such as SmallWorldStream,
// which derives neighbor lists on demand and makes 100k+ node simulations
// affordable in memory.
type Topology = topology.Source

// SmallWorldStream builds the streamed small-world topology: the same ring
// plus far-fetched shortcuts as SmallWorld, but derived lazily from seed
// with O(degree) memory per node touched.
func SmallWorldStream(n, k int, pFar float64, seed uint64) Topology {
	return topology.NewSmallWorldStream(n, k, pFar, seed)
}

// Mode selects the sharing scheme: DataSharing is REX, ModelSharing the
// classical decentralized-learning baseline.
type Mode = core.Mode

// Sharing modes.
const (
	ModelSharing = core.ModelSharing
	DataSharing  = core.DataSharing
)

// Algo selects the dissemination algorithm (§III-C).
type Algo = gossip.Algo

// Dissemination algorithms.
const (
	RMW   = gossip.RMW
	DPSGD = gossip.DPSGD
)

// SimConfig configures a deterministic virtual-time simulation run.
type SimConfig = sim.Config

// SimResult is a simulation run's learning curve and system metrics.
type SimResult = sim.Result

// EpochStats is one epoch row of a SimResult series.
type EpochStats = sim.EpochStats

// StageTimes is the per-epoch merge/train/share/test breakdown.
type StageTimes = sim.StageTimes

// NetParams describes virtual network links.
type NetParams = sim.NetParams

// ComputeParams translates model work into virtual seconds.
type ComputeParams = sim.ComputeParams

// DefaultNet returns the decentralized-user network profile used by the
// experiments.
func DefaultNet() NetParams { return sim.DefaultNet() }

// MFCompute returns the MF cost profile for the simulator.
func MFCompute(k int) ComputeParams { return sim.MFCompute(k) }

// DNNCompute returns the DNN cost profile for the simulator.
func DNNCompute(mlpParams, embDim, batch int) ComputeParams {
	return sim.DNNCompute(mlpParams, embDim, batch)
}

// Simulate runs a REX network under the virtual-time cost model. Epochs
// execute on a worker pool sized by cfg.Workers (0 = GOMAXPROCS, 1 =
// sequential); the result is deterministic in cfg.Seed and independent of
// the worker count.
func Simulate(cfg SimConfig) (*SimResult, error) { return sim.Run(cfg) }

// EnclaveParams are the SGX cost-model constants (EPC size, transition
// costs, memory-encryption overheads).
type EnclaveParams = enclave.Params

// DefaultEnclaveParams returns the calibrated SGX cost constants
// (EPC 93.5 MiB, 8µs transitions; `rexbench -exp table4` shows their
// effect).
func DefaultEnclaveParams() EnclaveParams { return enclave.DefaultParams() }

// NodeConfig parameterizes one protocol node.
type NodeConfig = core.Config

// Node is one REX participant's enclaved protocol state.
type Node = core.Node

// NewNode creates a protocol node from its initial local train/test data.
func NewNode(cfg NodeConfig, m Model, train, test []Rating) *Node {
	return core.NewNode(cfg, m, train, test)
}

// ClusterConfig configures a live REX deployment with real attestation and
// encrypted gossip: all of it in process, or, with ShardAddrs, one shard
// of a multi-process deployment whose cross-shard edges run over TCP (see
// cmd/rexd -shard).
type ClusterConfig = runtime.ClusterConfig

// NodeStats reports one live node's stage timings, traffic and errors.
type NodeStats = runtime.Stats

// RunCluster executes a live REX cluster: concurrent nodes, mutual
// attestation (when Secure), AES-GCM sealed gossip. A shard's result has
// nil entries for the nodes other shards run.
func RunCluster(cfg ClusterConfig) ([]*NodeStats, error) { return runtime.RunCluster(cfg) }

// ShardRange returns the node block [lo, hi) that shard s of k owns in an
// n-node sharded deployment.
func ShardRange(n, k, s int) (lo, hi int) { return runtime.ShardRange(n, k, s) }

// PeerSampling is the gossip membership service (partial views, swap,
// self-healing) REX networks can bootstrap their topology from.
type PeerSampling = peersampling.Service

// PeerSamplingConfig parameterizes the membership service.
type PeerSamplingConfig = peersampling.Config

// DefaultPeerSamplingConfig returns robust view/swap sizes.
func DefaultPeerSamplingConfig() PeerSamplingConfig { return peersampling.DefaultConfig() }

// NewPeerSampling creates a membership service for n nodes.
func NewPeerSampling(n int, cfg PeerSamplingConfig, rng *rand.Rand) *PeerSampling {
	return peersampling.New(n, cfg, rng)
}

// RankedItem is one entry of a top-N recommendation list.
type RankedItem = rank.Item

// TopN returns the n highest-predicted unseen items for a user.
func TopN(m Model, user uint32, numItems, n int, seen map[uint32]bool) []RankedItem {
	return rank.TopN(m, user, numItems, n, seen)
}

// RankMetrics aggregates precision@k, recall@k and NDCG@k.
type RankMetrics = rank.Metrics

// EvaluateRanking measures top-k recommendation quality of a model.
func EvaluateRanking(m Model, train, test []Rating, numItems, k int) RankMetrics {
	return rank.Evaluate(m, train, test, numItems, k)
}

// KNNConfig holds user-based KNN hyperparameters.
type KNNConfig = knn.Config

// KNNRecommender predicts from raw profiles — the recommender family that
// only works when raw data is available, i.e. over a REX store.
type KNNRecommender = knn.Recommender

// NewKNN builds a KNN recommender from raw ratings (e.g. a post-gossip
// REX store, SimResult.Stores[i]).
func NewKNN(cfg KNNConfig, ratings []Rating) *KNNRecommender { return knn.New(cfg, ratings) }

// DefaultKNNConfig returns common KNN settings (k=20 neighbours).
func DefaultKNNConfig() KNNConfig { return knn.DefaultConfig() }

// BaselineResult is the centralized baseline's learning curve.
type BaselineResult = baseline.Result

// Centralized trains a model on the full dataset in one place — the
// "Centralized (baseline)" curve in every figure.
func Centralized(m Model, train, test []Rating, epochs, stepsPerEpoch int, seed int64) *BaselineResult {
	return baseline.Run(m, train, test, epochs, stepsPerEpoch, seed)
}
