package runtime

import (
	"crypto/rand"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/model"
)

// Engine is one node's epoch loop, exposed one epoch at a time: a batch
// job is a loop of Steps, and a long-running daemon (cmd/rexd) interleaves
// them with serving, ingestion and persistence. Lifecycle:
//
//	e, err := NewEngine(cfg)   // validate, build the runner
//	err = e.Start()            // attest neighbors (secure mode)
//	for ... { e.Step() }       // one merge-train-share-test epoch each
//	e.Drain()                  // (any goroutine) ask the loop to stop
//	e.Stop()                   // end the runner goroutines, fold transport counters
//
// Step, Start and Stop must be called from one goroutine (the protocol
// thread). Ingest, Drain, Snapshot and Status are safe from any goroutine:
// they are how a serving layer talks to a training node without touching
// its state — ratings go in through a mailbox the next Step drains, and
// reads come out of immutable published snapshots.
type Engine struct {
	r     *runner
	epoch int // index of the next epoch Step will run

	started bool
	stopped bool

	draining atomic.Bool

	// Ingestion mailbox: ratings posted between gossip rounds, appended to
	// the node's local store at the start of the next Step so incremental
	// training picks them up. Guarded by mu; Step swaps the slice out.
	mu       sync.Mutex
	mailbox  []dataset.Rating
	ingested int64

	snap   atomic.Pointer[Snapshot]
	status atomic.Pointer[Status]
	// nbView and lostView are the immutable neighbor lists every
	// published Status shares until the sets change.
	nbView, lostView []int
}

// Snapshot is a read-consistent view of a node's state at the end of one
// epoch: a deep clone of the model and a copy of the raw-data store. It is
// immutable once published — serving reads it (rank.TopN, knn) while the
// next epoch trains, with no locks and no torn reads. Published after
// every epoch when Config.Publish is set.
type Snapshot struct {
	// Epoch is the number of completed epochs at capture time.
	Epoch int
	// RMSE is the node's local test RMSE at capture time.
	RMSE float64
	// Model is an independent deep copy; callers must not mutate it.
	Model model.Model
	// Ratings is a copy of the raw-data store (the node's deduplicated
	// profile database); callers must treat it as read-only.
	Ratings []dataset.Rating
}

// Status is the cheap control-plane view published, like Snapshot, when
// Config.Publish is set: at Start and after every epoch, counters only, no
// model copy.
type Status struct {
	// Epoch is the number of completed epochs.
	Epoch int
	// RMSE is the latest test RMSE (NaN before the first epoch and for
	// epochs the node sat out under oracle churn).
	RMSE float64
	// Neighbors is the live neighbor set; Lost lists peers the failure
	// detector dropped that remain eligible to rejoin. Successive Statuses
	// share one copy of each until the set changes: read-only.
	Neighbors []int
	Lost      []int
	// Draining reports whether Drain has been requested.
	Draining bool
	// Ingested counts ratings accepted through the mailbox so far.
	Ingested int64
	// Traffic and liveness counters, mirrored from Stats.
	BytesIn, BytesOut, BytesOnWire int64
	PeersLost, Rejoins, Attested   int
	// Delta-wire counters, mirrored from Stats: triplets shipped as
	// back-references vs explicitly, stream resets sent, and the bytes
	// the flat encoding would have cost (WireRawBytes-BytesOnWire is the
	// saving; see Stats).
	DeltaRefs, DeltaExplicit, Resyncs, WireRawBytes int64
}

// NewEngine validates the configuration and builds the engine. No network
// traffic happens until Start.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Node == nil || cfg.Endpoint == nil {
		return nil, fmt.Errorf("runtime: node and endpoint are required")
	}
	if cfg.Entropy == nil {
		cfg.Entropy = rand.Reader
	}
	if cfg.Secure && (cfg.Platform == nil || cfg.Infra == nil) {
		return nil, fmt.Errorf("runtime: secure mode requires a platform and infrastructure")
	}
	// Per-peer state (receive models, delta streams) is built once, here
	// on the protocol thread, for every configured neighbor. A resumed
	// daemon (StartEpoch > 0) starts every stream with a reset frame:
	// stream state is not persisted in snapshots, and peers that kept
	// running hold a view of the old stream that must not be referenced
	// into.
	e := &Engine{r: newRunner(cfg, cfg.StartEpoch > 0), epoch: cfg.StartEpoch}
	return e, nil
}

// Start performs the one-time bootstrap: mutual attestation with every
// neighbor in secure mode, and the first Status publication (Publish
// mode).
func (e *Engine) Start() error {
	if e.started {
		return fmt.Errorf("runtime: engine already started")
	}
	if e.r.cfg.Secure {
		if err := e.r.attestAll(); err != nil {
			return fmt.Errorf("runtime: attestation: %w", err)
		}
	}
	e.started = true
	e.publishStatus(math.NaN())
	return nil
}

// Epoch returns the number of epochs completed so far (equivalently, the
// index of the epoch the next Step will run).
func (e *Engine) Epoch() int { return e.epoch }

// Stats returns the underlying counters. They are written by the protocol
// thread: read them only between Steps or after Stop. Concurrent observers
// should use Status instead.
func (e *Engine) Stats() *Stats { return e.r.stats }

// Drain asks the stepping loop to stop: the loop checks Draining between
// epochs (rexd's generation loop does), so the current epoch always
// completes cleanly — shares sent, RMSE recorded — before the node goes
// quiet. Safe from any goroutine; idempotent.
func (e *Engine) Drain() { e.draining.Store(true) }

// Draining reports whether Drain has been requested.
func (e *Engine) Draining() bool { return e.draining.Load() }

// Ingest posts ratings into the mailbox; the next Step appends them to the
// node's local store, where incremental training and REX sampling pick
// them up. Safe from any goroutine. The slice is copied.
func (e *Engine) Ingest(rs []dataset.Rating) int {
	if len(rs) == 0 {
		return 0
	}
	e.mu.Lock()
	e.mailbox = append(e.mailbox, rs...)
	e.ingested += int64(len(rs))
	e.mu.Unlock()
	return len(rs)
}

// Snapshot returns the latest published snapshot, or nil before the first
// Publish-mode epoch completes. The returned value is immutable.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// Status returns the latest published control-plane view, or nil before
// Start and whenever Config.Publish is off. The returned value is
// immutable.
func (e *Engine) Status() *Status { return e.status.Load() }

// Step runs one merge-train-share-test epoch (Algorithm 2 body) and
// returns its test RMSE. Epoch 0 trains on local data only; every later
// epoch first gathers one gossip frame from each live neighbor (the
// Algorithm 2 line 13 barrier — RMW peers send empty notifications).
// Mailbox ratings are folded into the store before the round so this
// epoch's training sees them.
func (e *Engine) Step() (float64, error) {
	r := e.r
	self := r.cfg.Node.Cfg.ID
	ep := e.epoch
	if r.absentAt(self, ep) {
		// Oracle churn: this node is scheduled offline this epoch.
		// Neighbors neither wait for nor send to it (the symmetric rules
		// in gatherRound/startShare), so it simply sits the round out; the
		// trajectory records NaN for the gap. Mailbox ratings stay queued:
		// an offline node's users are offline too.
		r.stats.RMSE = append(r.stats.RMSE, math.NaN())
		if r.cfg.OnEpoch != nil {
			r.cfg.OnEpoch(ep, math.NaN())
		}
		e.epoch++
		e.publishStatus(math.NaN())
		return math.NaN(), nil
	}

	// --- ingest: drain the mailbox into the local store. Arrival order is
	// preserved; the store deduplicates on (user, item) like any gossiped
	// data. With an unused mailbox this is a no-op, which is what keeps
	// batch trajectories bit-identical to the pre-engine loop.
	e.mu.Lock()
	fresh := e.mailbox
	e.mailbox = nil
	e.mu.Unlock()
	if len(fresh) > 0 {
		r.cfg.Node.Store.Append(fresh)
	}

	deg := len(r.neighbors)
	// --- gather + merge ---
	t0 := time.Now()
	var payloads []core.Payload
	if ep > 0 && !r.absentAt(self, ep-1) {
		// A node absent last epoch gathers nothing: nobody sent to it
		// (startShare's send rule), exactly as a rejoining simulator node
		// finds an empty inbox.
		var err error
		payloads, err = r.gatherRound(ep)
		if err != nil {
			return 0, fmt.Errorf("epoch %d: %w", ep, err)
		}
	}
	r.cfg.Node.Merge(payloads, deg)
	r.stats.Merge += time.Since(t0)

	// --- train ---
	t0 = time.Now()
	r.cfg.Node.Train()
	r.stats.Train += time.Since(t0)

	// --- share: payload building (RNG draws, serialization) stays on the
	// protocol thread for determinism; sealing and sending move to a
	// background goroutine so they overlap the test stage.
	t0 = time.Now()
	sent, err := r.startShare(ep)
	if err != nil {
		return 0, fmt.Errorf("epoch %d: %w", ep, err)
	}
	r.stats.Share += time.Since(t0)

	// --- test (concurrent with the share sends) ---
	t0 = time.Now()
	rmse := r.cfg.Node.TestRMSE()
	r.stats.Test += time.Since(t0)

	res := <-sent
	if res.err != nil {
		return 0, fmt.Errorf("epoch %d: %w", ep, res.err)
	}
	r.stats.Share += res.dur
	r.stats.Seal += res.seal
	r.stats.Wire += res.wire
	r.stats.BytesOut += res.bytes
	r.stats.BytesOnWire += res.wireBytes
	r.stats.WireRawBytes += res.rawBytes
	r.stats.DeltaRefs += res.refs
	r.stats.DeltaExplicit += res.explicit
	r.stats.Resyncs += res.resyncs
	for _, nb := range res.lost {
		r.notePeerMiss(nb)
	}

	r.stats.RMSE = append(r.stats.RMSE, rmse)
	r.stats.FinalRMSE = rmse
	if r.cfg.OnEpoch != nil {
		r.cfg.OnEpoch(ep, rmse)
	}
	e.epoch++
	if r.cfg.Publish {
		m := r.cfg.Node.Model.Clone()
		// Readers on several goroutines marshal a published model (rexd's
		// persist loop, /snapshot): its lazy layout must be built before
		// they can race to build it.
		if c, ok := m.(model.Canonicalizer); ok {
			c.Canonicalize()
		}
		e.snap.Store(&Snapshot{
			Epoch:   e.epoch,
			RMSE:    rmse,
			Model:   m,
			Ratings: r.cfg.Node.Store.Snapshot(),
		})
	}
	e.publishStatus(rmse)
	return rmse, nil
}

// Stop ends the runner's goroutines, returning once they are done, and
// folds the transport's queue and fault counters into Stats — even after
// a failed epoch, so failure-path Stats still show whether lanes were
// congested. Idempotent; it does not close the endpoint (the caller owns
// it).
func (e *Engine) Stop() {
	if e.stopped {
		return
	}
	e.stopped = true
	r := e.r
	close(r.quit)
	if r.shareGone != nil {
		<-r.shareGone
	}
	if r.poolGone != nil {
		<-r.poolGone
	}
	if r.roundTimer != nil {
		r.roundTimer.Stop()
	}
	if q, ok := e.r.cfg.Endpoint.(QueueReporter); ok {
		e.r.stats.SendQueueHWM = q.SendQueueHWM()
	}
	if f, ok := e.r.cfg.Endpoint.(FaultReporter); ok {
		e.r.stats.DroppedFrames, e.r.stats.DelayedFrames = f.FaultCounts()
	}
}

// publishStatus snapshots the control-plane counters in Publish mode.
// Runs on the protocol thread, where every source field is stable.
func (e *Engine) publishStatus(rmse float64) {
	if !e.r.cfg.Publish {
		return
	}
	if e.r.peersChanged {
		e.nbView = append([]int(nil), e.r.neighbors...)
		e.lostView = append([]int(nil), e.r.lost...)
		e.r.peersChanged = false
	}
	e.mu.Lock()
	ingested := e.ingested
	e.mu.Unlock()
	st := &Status{
		Epoch:       e.epoch,
		RMSE:        rmse,
		Neighbors:   e.nbView,
		Lost:        e.lostView,
		Draining:    e.draining.Load(),
		Ingested:    ingested,
		BytesIn:     e.r.stats.BytesIn,
		BytesOut:    e.r.stats.BytesOut,
		BytesOnWire: e.r.stats.BytesOnWire,
		PeersLost:   e.r.stats.PeersLost,
		Rejoins:     e.r.stats.Rejoins,
		Attested:    e.r.stats.Attested,

		DeltaRefs:     e.r.stats.DeltaRefs,
		DeltaExplicit: e.r.stats.DeltaExplicit,
		Resyncs:       e.r.stats.Resyncs,
		WireRawBytes:  e.r.stats.WireRawBytes,
	}
	e.status.Store(st)
}
