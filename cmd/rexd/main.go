// Command rexd runs REX nodes over TCP — the deployment shape of the
// paper's SGX cluster (§IV-C). Every process of a cluster is started with
// the same workload flags (-seed, -scale, -mode, -algo, -share, -steps,
// -scenario) and derives the same synthetic dataset and partitioning from
// them: node i trains on the i-th partition, attests its neighbors when
// -secure, and gossips raw ratings (or model parameters with -mode ms).
// One process runs one node, in every shape it takes.
//
// Daemon: one node as a long-running service around runtime.Engine, with
// snapshot persistence (internal/store) and an HTTP serving path
// (internal/serve) attached. It trains in generations of -gen-epochs
// epochs, persists a snapshot after each one, serves /recommend from the
// latest published snapshot the whole time, and keeps going until a drain
// (SIGTERM, SIGINT or POST /drain) or -generations runs out. A 2-node
// cluster (two shells):
//
//	rexd -id 0 -nodes 127.0.0.1:7800,127.0.0.1:7801 -http 127.0.0.1:8800 -data /tmp/rexd0
//	rexd -id 1 -nodes 127.0.0.1:7800,127.0.0.1:7801 -http 127.0.0.1:8801 -data /tmp/rexd1
//
// then POST ratings to /rate, query /recommend?user=U&n=N (add &model=knn
// to rank with user-based KNN over the node's raw-data store), watch
// /status, and stop with POST /drain — the daemon finishes its epoch,
// persists a final snapshot, and exits 0.
//
// Crash recovery: kill -9 a node, restart it with the same flags plus
// -resume, and it reloads the last persisted snapshot, replays its rating
// WAL, and rejoins the still-running cluster mid-gossip — peers readmit it
// through the failure detector's rejoin path (gossip is rate-synchronized,
// not epoch-stamped, so the resumed node's older epoch counter is fine).
//
// Batch: the same node without -http and -data is a batch job. It trains
// -generations × -gen-epochs epochs and exits:
//
//	rexd -id 0 -nodes 127.0.0.1:7800,127.0.0.1:7801 -generations 10 -gen-epochs 5
//	rexd -id 1 -nodes 127.0.0.1:7800,127.0.0.1:7801 -generations 10 -gen-epochs 5
//
// A secure cluster is the same shape with -secure on every process: the
// paper's 8 enclaves, one process each (rexd pairs consecutive nodes onto
// one simulated SGX platform, the paper's two per machine), from one shell:
//
//	nodes=$(seq -f 127.0.0.1:%g -s, 7800 7807)
//	for i in $(seq 0 7); do rexd -id $i -nodes $nodes -secure -generations 2 & done; wait
//
// Every node ends by printing one line to stdout, "node N done: final
// RMSE R | …", with R in round-trip-exact form.
//
// -secure defaults to false, the paper's native build. Resume is a
// plaintext-mode feature: secure mode has no re-attestation path (a fresh
// enclave cannot rejoin sessions attested before the crash), so -secure is
// rejected together with -resume. Secure clusters work when they start
// fresh: every process derives the same attestation collateral from -seed,
// standing in for the keys SGX hardware fuses at manufacture.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/faultnet"
	"rex/internal/gossip"
	"rex/internal/metrics"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
	"rex/internal/runtime"
	"rex/internal/serve"
	"rex/internal/store"
)

func main() {
	var o daemonOpts
	flag.IntVar(&o.id, "id", 0, "this node's index into -nodes")
	flag.StringVar(&o.nodes, "nodes", "", "comma-separated host:port of every node's gossip address, in id order")
	flag.StringVar(&o.httpAddr, "http", "", "HTTP serving address (e.g. 127.0.0.1:8800)")
	flag.StringVar(&o.dataDir, "data", "", "persistence directory (snapshots + rating WAL); empty = no persistence")
	flag.BoolVar(&o.resume, "resume", false, "restore model/store/epoch from the last snapshot in -data and rejoin the cluster")
	flag.IntVar(&o.generations, "generations", 0, "stop after this many generations; 0 = run until drained")
	flag.IntVar(&o.genEpochs, "gen-epochs", 5, "training epochs per generation (one snapshot per generation)")
	flag.StringVar(&o.modeStr, "mode", "rex", "sharing mode: rex (raw data) or ms (model parameters)")
	flag.StringVar(&o.algoStr, "algo", "dpsgd", "dissemination: dpsgd or rmw")
	flag.BoolVar(&o.secure, "secure", false, "attest peers and encrypt gossip (default: the native build); incompatible with -resume")
	flag.Int64Var(&o.seed, "seed", 1, "shared dataset/partition seed (must match across the cluster)")
	flag.Float64Var(&o.scale, "scale", 0.1, "MovieLens-Latest scale factor for the synthetic dataset")
	flag.IntVar(&o.points, "share", 100, "raw data points shared per epoch")
	flag.IntVar(&o.steps, "steps", 300, "SGD steps per epoch")
	flag.DurationVar(&o.roundTimeout, "round-timeout", 5*time.Second, "max wait per neighbor per gossip round before counting a miss (0 = wait forever)")
	flag.IntVar(&o.peerGrace, "peer-grace", 3, "consecutive missed rounds before a peer is dropped (rejoin stays possible)")
	flag.StringVar(&o.scenario, "scenario", "", "chaos scenario (canned name or JSON file): wrap this process's gossip endpoints with the seeded fault schedule; every process of the cluster must be given the same scenario")
	flag.Float64Var(&o.rateLimit, "rate-limit", 0, "admission: token-bucket rate for POST /rate in requests/sec; over-limit requests are shed 429 before any WAL write (0 = unlimited)")
	flag.IntVar(&o.rateBurst, "rate-burst", 0, "admission: token-bucket capacity (0 = ceil(rate-limit))")
	flag.IntVar(&o.ingestQueue, "ingest-queue", 0, "admission: max concurrent /rate requests inside the WAL+ingest section; excess is shed 429 (0 = unbounded)")
	flag.DurationVar(&o.maxSnapshotAge, "max-snapshot-age", 0, "admission: shed GET /recommend 503 when the served snapshot hasn't advanced for this long (0 = never)")
	flag.Parse()
	if err := run(o); err != nil {
		log.Fatalf("rexd: %v", err)
	}
}

type daemonOpts struct {
	id           int
	nodes        string
	httpAddr     string
	dataDir      string
	resume       bool
	generations  int
	genEpochs    int
	modeStr      string
	algoStr      string
	secure       bool
	seed         int64
	scale        float64
	points       int
	steps        int
	roundTimeout time.Duration
	peerGrace    int

	scenario       string
	rateLimit      float64
	rateBurst      int
	ingestQueue    int
	maxSnapshotAge time.Duration
}

func run(o daemonOpts) error {
	mode, err := core.ParseMode(o.modeStr)
	if err != nil {
		return err
	}
	algo, err := gossip.ParseAlgo(o.algoStr)
	if err != nil {
		return err
	}
	if o.secure && o.resume {
		return fmt.Errorf("-resume needs -secure=false: there is no re-attestation path into a running secure cluster")
	}
	if o.genEpochs <= 0 {
		return fmt.Errorf("-gen-epochs must be positive")
	}
	if o.generations < 0 {
		return fmt.Errorf("-generations %d: want a positive count, or 0 to run until drained", o.generations)
	}
	if err := movielens.Latest().Scaled(o.scale).Validate(); err != nil {
		return fmt.Errorf("-scale %g: %w", o.scale, err)
	}
	var sc *faultnet.Scenario
	if o.scenario != "" {
		if sc, err = faultnet.Resolve(o.scenario); err != nil {
			return err
		}
		log.Printf("chaos scenario %q (seed %d): drop=%.2f delay=%.2f dup=%.2f reorder=%.2f partitions=%d churn=%d",
			sc.Name, sc.Seed, sc.Drop, sc.Delay, sc.Duplicate, sc.Reorder, len(sc.Partitions), len(sc.Churn))
	}
	ncfg := core.Config{Mode: mode, Algo: algo, StepsPerEpoch: o.steps, SharePoints: o.points, Seed: o.seed}
	return runNode(o, ncfg, sc)
}

// workload is what every process of a cluster derives alike from the
// shared flags: the synthetic dataset's n-way user partition (Algorithm 1:
// read_dataset) and the node and model configurations.
type workload struct {
	numItems    int
	train, test [][]dataset.Rating
	ncfg        core.Config
	mcfg        mf.Config
}

func newWorkload(o daemonOpts, ncfg core.Config, n int) (*workload, error) {
	spec := movielens.Latest().Scaled(o.scale)
	spec.Seed = o.seed
	ds := movielens.Generate(spec)
	tr, te := ds.SplitPerUser(0.7, rand.New(rand.NewSource(o.seed)))
	train, err := tr.PartitionUsersAcross(n, rand.New(rand.NewSource(o.seed)))
	if err != nil {
		return nil, fmt.Errorf("partitioning: %w", err)
	}
	test, err := te.PartitionUsersAcross(n, rand.New(rand.NewSource(o.seed)))
	if err != nil {
		return nil, fmt.Errorf("partitioning: %w", err)
	}
	return &workload{numItems: ds.NumItems, train: train, test: test, ncfg: ncfg, mcfg: mf.DefaultConfig()}, nil
}

func (w *workload) nodeConfig(id int) core.Config {
	c := w.ncfg
	c.ID = id
	return c
}

func (w *workload) newModel() model.Model { return mf.New(w.mcfg) }

// printDone prints a node's one summary line. The RMSE is printed in its
// shortest round-trip-exact form, so runs compare bit for bit.
func printDone(id int, s *runtime.Stats) {
	fmt.Printf("node %d done: final RMSE %v | merge %v train %v share %v test %v | seal %v open %v wire %v | in %d B out %d B on-wire %d B | delta saved %d B refs %d explicit %d resyncs %d | attested %d | lost %d rejoined %d | faults dropped %d delayed %d | queue hwm %d\n",
		id, s.FinalRMSE, s.Merge, s.Train, s.Share, s.Test,
		s.Seal, s.Open, s.Wire, s.BytesIn, s.BytesOut, s.BytesOnWire,
		max(s.WireRawBytes-s.BytesOnWire, 0), s.DeltaRefs, s.DeltaExplicit, s.Resyncs, s.Attested,
		s.PeersLost, s.Rejoins, s.DroppedFrames, s.DelayedFrames, s.SendQueueHWM)
}

// runNode runs one node on runtime.Engine: a daemon with -http or -data,
// a batch job without them.
func runNode(o daemonOpts, ncfg core.Config, sc *faultnet.Scenario) error {
	addrs := strings.Split(o.nodes, ",")
	if len(addrs) < 2 || slices.Contains(addrs, "") {
		return fmt.Errorf("-nodes needs at least two addresses and no empty one, got %q", o.nodes)
	}
	if o.id < 0 || o.id >= len(addrs) {
		return fmt.Errorf("-id %d out of range for %d nodes", o.id, len(addrs))
	}
	n := len(addrs)
	w, err := newWorkload(o, ncfg, n)
	if err != nil {
		return err
	}

	// Persistence: open the data dir first so a -resume failure is caught
	// before any network activity.
	var dir *store.Dir
	var dirMu sync.Mutex // serializes WAL appends (HTTP) vs snapshots (loop)
	if o.dataDir != "" {
		dir, err = store.Open(o.dataDir)
		if err != nil {
			return err
		}
		defer dir.Close()
	}

	node := core.NewNode(w.nodeConfig(o.id), w.newModel(), w.train[o.id], w.test[o.id])
	startEpoch := 0
	resumed := false
	if o.resume {
		if dir == nil {
			return fmt.Errorf("-resume needs -data")
		}
		snap, replayed, err := dir.Load()
		if err != nil {
			return fmt.Errorf("loading %s: %w", o.dataDir, err)
		}
		switch {
		case snap == nil && len(replayed) == 0:
			log.Printf("node %d: -resume with empty %s, starting fresh", o.id, o.dataDir)
		case snap == nil:
			// Killed before the first snapshot landed: the WAL is all the
			// durable state there is, and every rating in it was acked.
			node.Store.Append(replayed)
			resumed = true
			log.Printf("node %d: resumed at epoch 0 (no snapshot, %d WAL ratings replayed)", o.id, len(replayed))
		default:
			m := mf.New(w.mcfg)
			if err := m.Unmarshal(snap.Model); err != nil {
				return fmt.Errorf("restoring model: %w", err)
			}
			// The node's RNG restarts at the first draw of its seed stream:
			// the source's state is not persisted, so a resumed trajectory is
			// deterministic but not the one an uninterrupted run would take.
			node = core.NewNode(w.nodeConfig(o.id), m, snap.Ratings, w.test[o.id])
			if len(replayed) > 0 {
				node.Store.Append(replayed)
			}
			startEpoch = snap.Epoch
			resumed = true
			log.Printf("node %d: resumed at epoch %d (%d snapshot ratings, %d WAL ratings replayed)",
				o.id, snap.Epoch, len(snap.Ratings), len(replayed))
		}
	}

	peers := make(map[int]string, n)
	var neighbors []int
	for i, a := range addrs {
		if i == o.id {
			continue
		}
		peers[i] = a
		neighbors = append(neighbors, i)
	}
	ep, err := runtime.NewTCPNet(o.id, addrs[o.id], peers)
	if err != nil {
		return err
	}
	// gossipEP tracks the endpoint actually handed to the engine: a
	// -scenario wraps ep with the fault injector, and closing the wrapper
	// (which flushes stashed frames, then closes ep) is the right
	// shutdown either way.
	gossipEP := runtime.Endpoint(ep)
	defer func() { gossipEP.Close() }()

	var faultLog *faultnet.Log
	if sc != nil {
		faultLog = &faultnet.Log{}
	}

	// Stage histograms for /metrics, fed by OnEpoch on the protocol thread,
	// the one place Stats may be read.
	stages := metrics.NewStageSet()
	var engine *runtime.Engine
	var prevStats runtime.Stats
	cfg := runtime.Config{
		Node: node, Endpoint: ep, Neighbors: neighbors,
		Secure:     o.secure,
		NewModel:   w.newModel,
		StartEpoch: startEpoch,
		Publish:    true,
		// A daemon must survive peer restarts: time out slow rounds, drop
		// after a grace window, and readmit peers that come back — this is
		// what lets a killed node -resume into a live cluster.
		RoundTimeout: o.roundTimeout,
		PeerGrace:    o.peerGrace,
		Rejoin:       true,
		OnEpoch: func(e int, rmse float64) {
			log.Printf("node %d epoch %3d: local test RMSE %.4f", o.id, e, rmse)
			if engine != nil {
				serve.ObserveStages(stages, &prevStats, engine.Stats())
			}
		},
	}
	if sc != nil {
		// Wraps cfg.Endpoint with the fault injector and applies the
		// scenario's failure-detector knobs (timeout/grace/rejoin).
		sc.ApplyRun(&cfg, faultLog)
		gossipEP = cfg.Endpoint
	}
	if o.secure {
		// Every process derives the cluster's collateral from -seed, so all
		// of them verify against the same infrastructure.
		inf, platforms, err := runtime.Collateral(n, rand.New(rand.NewSource(o.seed)))
		if err != nil {
			return err
		}
		cfg.Platform = platforms[o.id]
		cfg.Infra = inf
		cfg.Measurement = runtime.EnclaveMeasurement
	}

	engine, err = runtime.NewEngine(cfg)
	if err != nil {
		return err
	}
	if err := engine.Start(); err != nil {
		return err
	}
	defer engine.Stop()

	// Drains: SIGTERM/SIGINT and POST /drain both set the engine flag; the
	// loop below notices between epochs, finishes the current one cleanly,
	// persists a final snapshot, and closes drained.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sig
		log.Printf("node %d: %v, draining", o.id, s)
		engine.Drain()
	}()

	// generation is read by /status handlers while the loop increments it.
	var generation atomic.Int64
	// drainErr is written before drained closes (that close is the /drain
	// waiters' happens-before edge), so handlers read it safely after.
	var drainErr error
	drained := make(chan struct{})
	var httpSrv *http.Server
	if o.httpAddr != "" {
		srv, err := serve.New(serve.Config{
			Node: engine, ID: o.id, NumItems: w.numItems,
			Stages: stages,
			Admission: serve.AdmissionConfig{
				RatePerSec:     o.rateLimit,
				Burst:          o.rateBurst,
				QueueDepth:     o.ingestQueue,
				MaxSnapshotAge: o.maxSnapshotAge,
			},
			OnRate: func(rs []dataset.Rating) error {
				if dir == nil {
					return nil
				}
				dirMu.Lock()
				defer dirMu.Unlock()
				return dir.Append(rs)
			},
			Drained:  drained,
			DrainErr: func() error { return drainErr },
			Extra: func() map[string]any {
				m := map[string]any{
					"generation": generation.Load(),
					"data_dir":   o.dataDir,
					"resumed":    resumed,
				}
				if faultLog != nil {
					c := faultLog.Counts()
					m["scenario"] = sc.Name
					m["faults"] = map[string]int64{
						"dropped":         c.Dropped,
						"delayed":         c.Delayed,
						"duplicated":      c.Duplicated,
						"reordered":       c.Reordered,
						"partition_drops": c.PartitionDrops,
						"leaves":          c.Leaves,
						"rejoins":         c.Rejoins,
					}
				}
				return m
			},
		})
		if err != nil {
			return err
		}
		httpSrv = &http.Server{Addr: o.httpAddr, Handler: srv.Handler()}
		go func() {
			log.Printf("node %d: serving on http://%s", o.id, o.httpAddr)
			if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("node %d: http: %v", o.id, err)
				engine.Drain()
			}
		}()
	}

	persist := func() error {
		if dir == nil {
			return nil
		}
		snap := engine.Snapshot()
		if snap == nil {
			return nil
		}
		rmse := snap.RMSE
		if math.IsNaN(rmse) {
			rmse = -1
		}
		dirMu.Lock()
		defer dirMu.Unlock()
		return dir.SaveSnapshot(snap.Epoch, rmse, snap.Model, snap.Ratings)
	}

	// The generation loop: train gen-epochs epochs, persist, repeat. The
	// serving path reads published snapshots concurrently the whole time.
	var loopErr error
	for !engine.Draining() && (o.generations == 0 || generation.Load() < int64(o.generations)) {
		for k := 0; k < o.genEpochs && !engine.Draining(); k++ {
			if _, err := engine.Step(); err != nil {
				loopErr = err
				break
			}
		}
		gen := generation.Add(1)
		if loopErr != nil {
			break
		}
		if err := persist(); err != nil {
			loopErr = fmt.Errorf("persisting generation %d: %w", gen, err)
			break
		}
		log.Printf("node %d: generation %d done (epoch %d persisted)", o.id, gen, engine.Epoch())
	}
	engine.Drain() // reflect the stop in /status for late observers
	if loopErr == nil {
		if err := persist(); err != nil {
			loopErr = fmt.Errorf("final snapshot: %w", err)
		}
	}
	engine.Stop()
	drainErr = loopErr
	close(drained)
	if httpSrv != nil {
		// Let in-flight handlers (notably /drain waiters) finish.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		httpSrv.Shutdown(ctx)
	}
	if loopErr != nil {
		return loopErr
	}
	printDone(o.id, engine.Stats())
	return nil
}
