package runtime

import (
	"cmp"
	"errors"
	"fmt"
	"io"
	goruntime "runtime"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"rex/internal/attest"
	"rex/internal/compress"
	"rex/internal/core"
	"rex/internal/gossip"
	"rex/internal/model"
	"rex/internal/seccha"
)

// Config drives one live node.
type Config struct {
	// Node is the enclaved protocol state (Algorithm 2).
	Node *core.Node
	// Endpoint is the untrusted network shell (Algorithm 1).
	Endpoint Endpoint
	// Neighbors lists the node's peers in the communication graph.
	Neighbors []int

	// Secure enables REX's protections: mutual attestation before any
	// exchange, and AES-GCM sealing of every gossip payload. False runs
	// the paper's "native" build: same protocol, plaintext, unattested.
	Secure bool
	// Platform, Infra and Measurement configure attestation when Secure.
	Platform    *attest.Platform
	Infra       *attest.Infrastructure
	Measurement attest.Measurement
	// Entropy supplies randomness for keys and nonces; defaults to
	// crypto/rand.Reader.
	Entropy io.Reader

	// NewModel constructs an empty model for decoding model-sharing
	// payloads; required in ModelSharing mode. The engine calls it once per
	// neighbor, at construction: each peer's frames are decoded into that
	// peer's model, round after round.
	NewModel func() model.Model

	// OnEpoch, when set, observes each completed epoch's test RMSE.
	OnEpoch func(epoch int, rmse float64)

	// RoundTimeout bounds how long an epoch waits for each neighbor's
	// message. Zero means wait forever (the paper's failure-free
	// assumption, §III-D). With a timeout, peers that miss a round are
	// declared failed and dropped from the neighbor set — the
	// timeout-based failure detection the paper defers to future work.
	// Per-peer transport failures (e.g. a send to a closed peer) drop the
	// peer the same way, regardless of RoundTimeout.
	RoundTimeout time.Duration

	// PeerGrace is how many consecutive missed rounds (round timeouts or
	// per-peer send failures) a neighbor survives before the failure
	// detector drops it. Zero keeps the original behavior — the first miss
	// drops — which is right for permanent crashes but too eager under
	// transient faults (lossy links, partitions that heal).
	PeerGrace int
	// Rejoin keeps a way back for dropped peers: the share stage keeps
	// probing them with empty frames, and a gossip frame arriving from a
	// dropped peer readmits it to the live set (counted in Stats.Rejoins).
	// Without it, as before, a drop is permanent.
	Rejoin bool
	// Absent, when set, is an oracle churn schedule shared by the whole
	// cluster (internal/faultnet Scenario.Absent): a node scheduled absent
	// for an epoch runs nothing that epoch, and its neighbors neither wait
	// for nor send to it — the live analogue of the simulator's
	// oracle-detected FailAt crashes, generalized to leave/rejoin.
	Absent func(node, epoch int) bool
	// SkipExpect, when set, is oracle fault detection for scheduled
	// message loss (faultnet Scenario.Oracle): SkipExpect(from, epoch)
	// reports that the frame peer `from` would have sent at `epoch` is
	// scheduled away (dropped or partition-cut), so the gather proceeds
	// without waiting for it — no round-timeout stall, no miss counted.
	// Without it, scheduled losses surface through the RoundTimeout
	// failure detector like any real loss.
	SkipExpect func(from, epoch int) bool

	// StartEpoch is the index of the first epoch this node executes —
	// nonzero when a daemon resumes from a persisted snapshot (the node
	// has already completed StartEpoch epochs). Gossip is
	// rate-synchronized, not epoch-stamped: each round consumes one frame
	// per live neighbor, so a resumed node interoperates with peers whose
	// own epoch counters have advanced further.
	StartEpoch int
	// Publish makes the engine publish a read-consistent Snapshot (deep
	// model clone + store copy) and Status after every epoch, for a
	// serving layer to read without blocking training. Batch runs leave
	// it off: cloning the model and building a Status every epoch is pure
	// overhead when nobody serves.
	Publish bool
}

// Stats reports one node's run.
type Stats struct {
	// Stage durations accumulated over all epochs (wall clock). Share
	// sends run concurrently with the test stage, so Share+Test may
	// exceed an epoch's wall time.
	Merge, Train, Share, Test time.Duration
	// Seal and Open accumulate the AES-GCM crypto sub-stages (sealing
	// inside Share, opening inside the gather that feeds Merge). Seal is
	// wall time on the one share goroutine; Open is summed across the
	// concurrent gather workers, so it measures crypto work done, not wall
	// time.
	Seal, Open time.Duration
	// Wire accumulates time spent handing frames to the transport; a
	// large value means sends blocked on a congested outbound lane.
	Wire time.Duration
	// BytesIn/BytesOut count gossip traffic (post-encryption sizes).
	BytesIn, BytesOut int64
	// BytesOnWire counts every byte this node handed to the transport —
	// gossip frames including the kind framing byte, attestation
	// handshakes, and rejoin probes — the node's end-to-end outbound
	// gossip volume. BytesOut, by contrast, counts only the payload bytes
	// of accepted gossip sends; the gap between the two is framing and
	// control overhead, the quantity the wire-efficiency work will squeeze.
	BytesOnWire int64
	// Attested counts completed attestation handshakes.
	Attested int
	// PeersLost counts neighbors dropped by the failure detector — round
	// timeouts and per-peer transport failures. With Config.PeerGrace a
	// neighbor is dropped (and counted) only after grace is exhausted, and
	// at most once per loss: a healed partition must not overcount.
	PeersLost int
	// Rejoins counts dropped peers readmitted after their gossip resumed
	// (Config.Rejoin).
	Rejoins int
	// DeltaRefs and DeltaExplicit count rating triplets sent as
	// dictionary back-references versus explicit entries; both stay zero
	// under model sharing, whose frames carry no triplets.
	DeltaRefs, DeltaExplicit int64
	// Resyncs counts stream-reset frames sent: full-frame resyncs
	// triggered by peers whose view of this node's delta stream gapped
	// (drops, churn, restarts).
	Resyncs int64
	// WireRawBytes accumulates, for every gossip frame actually handed to
	// the transport, the plaintext bytes its payload would have cost in the
	// flat reference encoding (EncodePayloadAppend behind a kind byte, a model
	// charged at its WireSize).
	// WireRawBytes-BytesOnWire is the volume the delta wire saved; in
	// secure mode it understates the saving, because BytesOnWire also
	// counts the per-frame AEAD overhead and the attestation handshakes.
	WireRawBytes int64
	// DroppedFrames and DelayedFrames count faults injected by a
	// fault-injecting transport wrapper, when the endpoint reports them
	// (see FaultReporter); zero on clean transports.
	DroppedFrames, DelayedFrames int64
	// SendQueueHWM is the transport queue-depth high-water mark, when the
	// endpoint reports one (see QueueReporter).
	SendQueueHWM int
	// PendingHWM is the most ahead-of-round gossip frames ever buffered
	// at once (fast peers may run a full epoch ahead).
	PendingHWM int
	// RMSE is the per-epoch test error trajectory.
	RMSE []float64
	// FinalRMSE is the last entry of RMSE.
	FinalRMSE float64
}

type runner struct {
	cfg      Config
	stats    *Stats
	channels map[int]*seccha.Channel
	// neighbors is the live neighbor set (always sorted ascending); the
	// failure detector shrinks it, rejoins grow it back.
	neighbors []int
	// miss counts consecutive missed rounds per neighbor for the grace
	// window; lost remembers dropped peers eligible to rejoin.
	miss map[int]int
	lost []int
	// pending holds gossip frames per peer that arrived ahead of the
	// epoch that will consume them (peers may run one epoch ahead);
	// pendingN counts the buffered frames for the high-water mark.
	pending  map[int][][]byte
	pendingN int

	// Share-path scratch, reused across epochs so steady-state epochs
	// allocate no per-frame encode buffers: the delta frame body and the
	// frame it is sealed into — Endpoint.Send copies, so the pair serves
	// every peer in turn.
	sendBody, sendSealed []byte
	// gather holds the scratch of each gather worker.
	gather []gatherSlot
	// Gather-path scratch, reused across rounds: the still-expected peer
	// set, the opened-frame and payload collection buffers, a copy of the
	// neighbor list for the timeout sweep (notePeerMiss mutates
	// r.neighbors mid-iteration) and the round deadline's timer.
	gatherNeed  map[int]bool
	openedBuf   []openResult
	gatherPl    []core.Payload
	timeoutScan []int
	roundTimer  *time.Timer

	// The goroutines the runner owns — the share goroutine and, above one
	// P, the gather pool — are started once, on first use, and exit when
	// quit closes (Engine.Stop) or the endpoint is done, whichever comes
	// first. The channels to them are made with them and reused.
	quit chan struct{}
	// The share goroutine takes an epoch's send from shareReq — to
	// shareTo, with full frames for targets, then empty ones to probes,
	// all filled in place on the protocol thread before the hand-off — and
	// returns its result on shareOut. shareGone closes when it exits.
	shareReq  chan struct{}
	shareOut  chan shareResult
	shareGone chan struct{}
	shareTo   []int
	probes    []int
	targets   map[int]bool
	// The gather pool takes frames from jobs and returns them opened on
	// outs, both sized to the configured neighbors so dispatch never
	// blocks; worker w owns gather[w]. poolGone closes when the last of
	// poolLeft workers exits.
	jobs     chan openJob
	outs     chan openResult
	poolGone chan struct{}
	poolLeft atomic.Int32
	// releaser takes opened frames back, when the transport recycles them.
	releaser Releaser
	// peersChanged reports that the live or lost set changed since the
	// last published Status.
	peersChanged bool
	// recvModel is the model each neighbor's model payloads are decoded
	// into (Config.NewModel), so a round's decode reuses last round's
	// tables. Like tx and rx it is fully populated before any worker runs
	// and never changed afterwards; a gather worker touches only the entry
	// of the peer whose frame it holds.
	recvModel map[int]model.Model

	// Delta wire state: per-peer send/receive stream halves, the epoch's
	// payload held for per-peer encoding, and the pre-built model section
	// with the buffers and encoder that build it. The maps are fully
	// populated on the protocol thread before any worker runs (initDelta);
	// a gather worker touches only its own peer's entries, and the share
	// goroutine runs between gathers.
	tx           map[int]*deltaTx
	rx           map[int]*deltaRx
	shareP       core.Payload
	modelSection []byte // a suffix of sectionBuf
	marshalBuf   []byte
	sectionBuf   []byte
	planes       compress.PlaneEncoder
}

// gatherSlot is one gather worker's scratch: the plaintext it opens a
// frame into, and the decoder and buffer for a word-plane model section.
type gatherSlot struct {
	opened    []byte
	marshaled []byte
	planes    compress.PlaneDecoder
}

// newRunner builds the runner and, on the calling (protocol) thread, all
// the per-peer state workers later reach through maps. A resumed daemon
// (resume) starts every delta stream with a reset frame.
func newRunner(cfg Config, resume bool) *runner {
	r := &runner{
		cfg:          cfg,
		stats:        &Stats{},
		neighbors:    append([]int(nil), cfg.Neighbors...),
		pending:      make(map[int][][]byte),
		gather:       make([]gatherSlot, 1),
		gatherNeed:   make(map[int]bool, len(cfg.Neighbors)),
		targets:      make(map[int]bool, len(cfg.Neighbors)),
		quit:         make(chan struct{}),
		peersChanged: true,
	}
	r.releaser, _ = cfg.Endpoint.(Releaser)
	if cfg.NewModel != nil {
		r.recvModel = make(map[int]model.Model, len(cfg.Neighbors))
		for _, nb := range cfg.Neighbors {
			r.recvModel[nb] = cfg.NewModel()
		}
	}
	r.initDelta(resume)
	return r
}

// grow returns buf emptied and able to hold need bytes: buf itself when
// its capacity suffices, else a new buffer with an eighth to spare. Under
// model sharing frames get a little larger every epoch (rows materialize
// on first touch and on merge), so a buffer sized to fit is outgrown by
// the next frame; the spare eighth is what lets reuse pay. (A quarter
// allocates 7 % less on the 8-node mesh and keeps 6 % more heap live.)
func grow(buf []byte, need int) []byte {
	if cap(buf) >= need {
		return buf[:0]
	}
	return make([]byte, 0, need+need/8)
}

// workersFor is how many workers open the frames of n peers: one per P,
// never more than there are peers.
func workersFor(n int) int { return max(1, min(goruntime.GOMAXPROCS(0), n)) }

// recvStatus reports how a receive attempt ended.
type recvStatus int

const (
	recvOK recvStatus = iota
	recvClosed
	recvTimeout
)

// recv waits for the next envelope, honoring endpoint shutdown (inbox
// close or Done, whichever the transport signals) and an optional
// deadline. Buffered frames win over a concurrent shutdown signal.
func (r *runner) recv(deadline <-chan time.Time) (Envelope, recvStatus) {
	inbox := r.cfg.Endpoint.Inbox()
	select {
	case env, ok := <-inbox:
		if !ok {
			return Envelope{}, recvClosed
		}
		return env, recvOK
	default:
	}
	select {
	case env, ok := <-inbox:
		if !ok {
			return Envelope{}, recvClosed
		}
		return env, recvOK
	case <-r.cfg.Endpoint.Done():
		return Envelope{}, recvClosed
	case <-deadline:
		return Envelope{}, recvTimeout
	}
}

// bufferPending stores a gossip frame that arrived ahead of the round that
// will consume it.
func (r *runner) bufferPending(from int, frame []byte) {
	r.pending[from] = append(r.pending[from], frame)
	r.pendingN++
	if r.pendingN > r.stats.PendingHWM {
		r.stats.PendingHWM = r.pendingN
	}
}

// openJob/openResult carry one frame through the gather pipeline.
type openJob struct {
	from  int
	frame []byte
}

type openResult struct {
	from  int
	pl    core.Payload
	bytes int
	dur   time.Duration
	err   error
}

// gatherRound collects one gossip frame from every live neighbor, opening
// (decrypting + decoding) each frame as it arrives instead of after the
// barrier, so fast peers' crypto overlaps the wait for slow ones. Frames
// a fast peer sends a round early are buffered raw. With RoundTimeout
// set, neighbors that miss the deadline are declared failed and dropped.
//
// The returned payloads are ordered by ascending neighbor id regardless
// of arrival or open order — the invariant that keeps learning
// trajectories deterministic for a fixed seed. They are valid until the
// next gatherRound, which reuses the slice, each payload's Model (the
// peer's entry of recvModel) and its Data (per-peer decode scratch).
// Engine.Step merges them before the next round, and nothing else keeps
// one: a published Snapshot clones the node's own model only.
func (r *runner) gatherRound(e int) ([]core.Payload, error) {
	need := r.gatherNeed
	clear(need)
	for _, nb := range r.neighbors {
		if r.absentAt(nb, e-1) {
			continue // oracle churn: nb did not run the sending epoch
		}
		if r.cfg.SkipExpect != nil && r.cfg.SkipExpect(nb, e-1) {
			continue // oracle loss: nb's frame was scheduled away
		}
		need[nb] = true
	}
	// Above one P frames go to the gather pool. A neighbor contributes one
	// frame per round and every round collects all its frames before it
	// returns, so no two workers ever touch the same peer's channel
	// concurrently and nonce order per channel is preserved.
	pooled := workersFor(len(r.neighbors)) > 1
	if pooled && r.jobs == nil {
		r.startPool()
	}

	opened := r.openedBuf[:0]
	inflight := 0
	dispatch := func(from int, frame []byte) {
		if pooled {
			r.jobs <- openJob{from: from, frame: frame}
			inflight++
		} else {
			opened = append(opened, r.consume(0, from, frame))
		}
	}

	// Drain frames already queued before blocking: when pending satisfies
	// the whole round the receive loop below never runs, and rejoin frames
	// from dropped peers would otherwise starve in the inbox. Drained
	// frames are buffered (never dispatched directly) so per-peer FIFO
	// order through pending is preserved.
	for drained := false; !drained; {
		select {
		case env, ok := <-r.cfg.Endpoint.Inbox():
			if !ok {
				drained = true
				break
			}
			if !IsGossipFrame(env.Data) {
				break
			}
			switch {
			case r.isNeighbor(env.From):
				r.bufferPending(env.From, env.Data)
			case r.cfg.Rejoin && r.isLost(env.From):
				r.rejoinPeer(env.From, env.Data)
			}
		default:
			drained = true
		}
	}

	// Serve from the ahead-of-time buffer.
	for _, nb := range r.neighbors {
		if q := r.pending[nb]; len(q) > 0 && need[nb] {
			dispatch(nb, q[0])
			// Pop by shifting (the queue is a frame or two deep; Delete
			// clears the vacated slot): slicing the head off would walk the
			// backing array forward, so every buffered frame regrew it and
			// consumed frames stayed reachable.
			r.pending[nb] = slices.Delete(q, 0, 1)
			r.pendingN--
			delete(need, nb)
			delete(r.miss, nb)
		}
	}
	var deadline <-chan time.Time
	if r.cfg.RoundTimeout > 0 && len(need) > 0 {
		deadline = r.armRoundTimer()
	}
	for len(need) > 0 {
		env, st := r.recv(deadline)
		switch st {
		case recvClosed:
			// Collect what is in flight even so: a result left in outs
			// would be taken for one of the next round's.
			r.openedBuf = r.collect(opened, inflight)
			return nil, fmt.Errorf("endpoint closed waiting for %d peers", len(need))
		case recvTimeout:
			// Failure detection: everyone still missing misses the round;
			// a peer whose consecutive misses exhaust PeerGrace is
			// declared dead. The round proceeds without the missing
			// frames either way.
			r.timeoutScan = append(r.timeoutScan[:0], r.neighbors...)
			for _, nb := range r.timeoutScan {
				if need[nb] {
					r.notePeerMiss(nb)
					delete(need, nb)
				}
			}
			continue
		}
		if !IsGossipFrame(env.Data) {
			continue // stray attestation retransmit, or a kind we do not speak; ignore
		}
		frame := env.Data
		switch {
		case need[env.From]:
			dispatch(env.From, frame)
			delete(need, env.From)
			delete(r.miss, env.From)
		case r.isNeighbor(env.From):
			r.bufferPending(env.From, frame)
		case r.cfg.Rejoin && r.isLost(env.From):
			// A dropped peer's gossip resumed (a healed partition, or our
			// probes reached it): readmit it. Its frame is buffered for
			// the next round, which will expect it normally again.
			r.rejoinPeer(env.From, frame)
		default:
			// Gossip from a peer the failure detector already dropped
			// (it may still be alive and sharing); discard rather than
			// buffer without bound.
		}
	}
	opened = r.collect(opened, inflight)

	r.openedBuf = opened
	slices.SortFunc(opened, func(a, b openResult) int { return cmp.Compare(a.from, b.from) })
	payloads := r.gatherPl[:0]
	for _, o := range opened {
		if o.err != nil {
			if errors.Is(o.err, seccha.ErrReplay) || errors.Is(o.err, errDeltaDiscard) {
				// A duplicated (or replayed) frame consumed this round's
				// slot for the peer; discard it and merge without — the
				// peer's genuine frame is already buffered in pending for
				// the next round. Rejected delta frames fold the same way:
				// the stream's resync protocol restores the peer's state
				// without blocking the round.
				r.stats.Open += o.dur
				continue
			}
			return nil, fmt.Errorf("peer %d: %w", o.from, o.err)
		}
		r.stats.BytesIn += int64(o.bytes)
		r.stats.Open += o.dur
		payloads = append(payloads, o.pl)
	}
	r.gatherPl = payloads
	return payloads, nil
}

// armRoundTimer starts the round deadline on the runner's one timer. The
// module declares go 1.22, whose timers keep a fired tick buffered until
// it is received: a round that finished before its deadline leaves one
// behind, which Stop cannot withdraw, so it is drained before Reset or
// the next round would time out at once.
func (r *runner) armRoundTimer() <-chan time.Time {
	if r.roundTimer == nil {
		r.roundTimer = time.NewTimer(r.cfg.RoundTimeout)
		return r.roundTimer.C
	}
	if !r.roundTimer.Stop() {
		select {
		case <-r.roundTimer.C:
		default:
		}
	}
	r.roundTimer.Reset(r.cfg.RoundTimeout)
	return r.roundTimer.C
}

// startPool starts the gather pool: one worker per P, never more than the
// configured neighbors.
func (r *runner) startPool() {
	workers := workersFor(len(r.cfg.Neighbors))
	for len(r.gather) < workers {
		r.gather = append(r.gather, gatherSlot{})
	}
	r.jobs = make(chan openJob, len(r.cfg.Neighbors))
	r.outs = make(chan openResult, len(r.cfg.Neighbors))
	r.poolGone = make(chan struct{})
	r.poolLeft.Store(int32(workers))
	for w := 0; w < workers; w++ {
		go r.gatherWorker(w)
	}
}

// gatherWorker opens frames into scratch slot w until the runner stops or
// the endpoint is done.
func (r *runner) gatherWorker(w int) {
	defer func() {
		if r.poolLeft.Add(-1) == 0 {
			close(r.poolGone)
		}
	}()
	done := r.cfg.Endpoint.Done()
	for {
		select {
		case j := <-r.jobs:
			r.outs <- r.consume(w, j.from, j.frame)
		case <-r.quit:
			return
		case <-done:
			return
		}
	}
}

// collect appends the results of the round's inflight pool jobs to
// opened. Workers exit on the endpoint's Done without waiting for the
// round: once the whole pool is gone, every job left is either opened in
// outs or unstarted in jobs, and the protocol thread opens the unstarted
// ones itself, on slot 0, which no worker can touch any more.
func (r *runner) collect(opened []openResult, inflight int) []openResult {
	for ; inflight > 0; inflight-- {
		select {
		case o := <-r.outs:
			opened = append(opened, o)
		case <-r.poolGone:
			select {
			case o := <-r.outs:
				opened = append(opened, o)
			case j := <-r.jobs:
				opened = append(opened, r.consume(0, j.from, j.frame))
			}
		}
	}
	return opened
}

// consume opens one frame and releases it to the transport: nothing reads
// a frame once open returns, whether it was merged, replayed or discarded.
func (r *runner) consume(slot, from int, frame []byte) openResult {
	res := r.open(slot, from, frame)
	if r.releaser != nil {
		r.releaser.Release(frame)
	}
	return res
}

// open decrypts (when secure) and decodes one gossip frame. The frame
// arrives with its kind byte (which rides outside the seal, and which
// IsGossipFrame already checked). slot selects the worker's scratch,
// reused from frame to frame: the decoded payload never aliases it — a
// model is unmarshaled into the peer's recvModel entry, ratings into the
// peer's decode scratch — but it does alias those (see gatherRound).
func (r *runner) open(slot, from int, frame []byte) openResult {
	t0 := time.Now()
	res := openResult{from: from, bytes: len(frame) - 1} // kind byte is framing
	body := frame[1:]
	if r.cfg.Secure {
		ch := r.channels[from]
		if ch == nil {
			res.err = fmt.Errorf("gossip from unattested peer")
			return res
		}
		s := &r.gather[slot]
		s.opened = grow(s.opened, len(body))
		pt, err := ch.OpenSeqAppend(s.opened, body)
		if err != nil {
			res.err = err
			res.dur = time.Since(t0)
			return res
		}
		s.opened = pt
		body = pt
	}
	res.pl, res.err = r.decodeDeltaFrame(slot, from, body)
	res.dur = time.Since(t0)
	return res
}

// isNeighbor reports whether id is still in the live neighbor set.
func (r *runner) isNeighbor(id int) bool {
	for _, nb := range r.neighbors {
		if nb == id {
			return true
		}
	}
	return false
}

// absentAt consults the oracle churn schedule.
func (r *runner) absentAt(node, epoch int) bool {
	return r.cfg.Absent != nil && epoch >= 0 && r.cfg.Absent(node, epoch)
}

// notePeerMiss records one missed round (timeout or send failure) for a
// neighbor and drops it once its consecutive misses exhaust the grace
// window. A frame arriving from the peer resets the count.
func (r *runner) notePeerMiss(nb int) {
	if r.miss == nil {
		r.miss = make(map[int]int)
	}
	r.miss[nb]++
	if r.miss[nb] > r.cfg.PeerGrace {
		r.dropPeer(nb)
	}
}

// isLost reports whether id was dropped but remains eligible to rejoin.
func (r *runner) isLost(id int) bool {
	for _, nb := range r.lost {
		if nb == id {
			return true
		}
	}
	return false
}

// rejoinPeer readmits a dropped peer whose gossip resumed: back into the
// (sorted) live set, with the triggering frame buffered for the next
// round.
func (r *runner) rejoinPeer(id int, frame []byte) {
	for i, nb := range r.lost {
		if nb == id {
			r.lost = append(r.lost[:i], r.lost[i+1:]...)
			break
		}
	}
	k := sort.SearchInts(r.neighbors, id)
	r.neighbors = append(r.neighbors, 0)
	copy(r.neighbors[k+1:], r.neighbors[k:])
	r.neighbors[k] = id
	r.peersChanged = true
	r.stats.Rejoins++
	r.bufferPending(id, frame)
}

// dropPeer removes a failed neighbor from the live set and releases the
// frames buffered for it. With Config.Rejoin the peer is remembered: probes
// keep flowing and resumed gossip readmits it.
func (r *runner) dropPeer(id int) {
	for i, nb := range r.neighbors {
		if nb == id {
			r.neighbors = append(r.neighbors[:i], r.neighbors[i+1:]...)
			r.peersChanged = true
			r.stats.PeersLost++
			r.pendingN -= len(r.pending[id])
			delete(r.pending, id)
			delete(r.miss, id)
			if r.cfg.Rejoin {
				r.lost = append(r.lost, id)
			}
			return
		}
	}
}

// shareResult is the outcome of one epoch's seal+send phase.
type shareResult struct {
	dur       time.Duration // wall time of the background phase
	seal      time.Duration // sealing, part of dur
	wire      time.Duration // summed time handing frames to the transport
	bytes     int64         // payload bytes of accepted sends (Stats.BytesOut)
	wireBytes int64         // full frame bytes incl. framing (Stats.BytesOnWire)
	rawBytes  int64         // what the flat encoding would have cost (Stats.WireRawBytes)
	refs      int64         // triplets sent as dictionary back-references
	explicit  int64         // triplets sent explicitly on the delta wire
	resyncs   int64         // stream-reset frames sent
	lost      []int         // peers whose transport failed; the loop drops them
	err       error         // fatal: the node's own endpoint closed
}

// startShare builds this epoch's payloads synchronously — the node's RNG
// draws (RMW target pick, REX sampling) and the model serialization stay
// on the protocol thread — then seals and sends on the share goroutine.
// The returned channel yields exactly one result.
func (r *runner) startShare(e int) (<-chan shareResult, error) {
	node := r.cfg.Node
	deg := len(r.neighbors)
	clear(r.targets)
	switch node.Cfg.Algo {
	case gossip.RMW:
		if deg > 0 {
			r.targets[r.neighbors[node.RNG().Intn(deg)]] = true
		}
	case gossip.DPSGD:
		for _, nb := range r.neighbors {
			r.targets[nb] = true
		}
	}
	// Delta frames are per-peer (each peer's stream state decides what goes
	// explicit), so encoding happens in sendShare; only the
	// peer-independent pieces are built here on the protocol thread: the
	// payload itself (its RNG draws must stay in protocol order) and the
	// model section.
	r.shareP = node.Share(deg, false)
	if r.shareP.Model != nil {
		if err := r.buildModelSection(r.shareP); err != nil {
			return nil, err
		}
	}
	// The send rule under oracle churn: a frame shared at epoch e is
	// consumed at the receiver's round e+1, so skip neighbors scheduled
	// absent at either epoch — a frame to an away node would sit stale in
	// its inbox and desynchronize its gather when it rejoins.
	r.shareTo = r.shareTo[:0]
	for _, nb := range r.neighbors {
		if !r.absentAt(nb, e) && !r.absentAt(nb, e+1) {
			r.shareTo = append(r.shareTo, nb)
		}
	}
	// Probes: with Rejoin, dropped peers keep receiving empty frames so a
	// healed partition has traffic to rejoin on from both sides.
	r.probes = r.probes[:0]
	if r.cfg.Rejoin {
		for _, nb := range r.lost {
			if !r.absentAt(nb, e) && !r.absentAt(nb, e+1) {
				r.probes = append(r.probes, nb)
			}
		}
	}
	if r.shareReq == nil {
		r.shareReq = make(chan struct{})
		r.shareOut = make(chan shareResult, 1)
		r.shareGone = make(chan struct{})
		go r.shareLoop() // with this epoch's send
		return r.shareOut, nil
	}
	select {
	case r.shareReq <- struct{}{}:
	case <-r.shareGone:
		// Stopped, or the endpoint is done: send here instead, which
		// fails the way it would have on the share goroutine.
		r.shareOut <- r.sendShare()
	}
	return r.shareOut, nil
}

// shareLoop is the share goroutine: the send of the epoch that started
// it, then one per request. Starting on a send, not on a request, keeps
// the first epoch scheduled as every later one: the protocol thread hands
// over and runs the test stage, where a request to a goroutine not yet
// waiting would block it and run the sends first.
func (r *runner) shareLoop() {
	defer close(r.shareGone)
	done := r.cfg.Endpoint.Done()
	for {
		r.shareOut <- r.sendShare()
		select {
		case <-r.shareReq:
		case <-r.quit:
			return
		case <-done:
			return
		}
	}
}

// sendShare seals this epoch's frame for each peer in shareTo — the
// payload for targets, an empty notification for the rest — then sends
// each probe an empty one, and enqueues them on the transport in that
// order. Probes go to dropped-but-rejoinable peers, with errors ignored.
// Per-peer transport failures are reported as lost peers; only the
// closure of the node's own endpoint is fatal.
func (r *runner) sendShare() shareResult {
	start := time.Now()
	var res shareResult
	for _, nb := range r.shareTo {
		switch err := r.sendOne(nb, r.targets[nb], &res); {
		case errors.Is(err, errEndpointClosed):
			res.err = err
		case err != nil:
			res.lost = append(res.lost, nb)
		}
	}
	for _, nb := range r.probes {
		// A failed probe is expected while the peer is gone; the next
		// epoch probes again.
		if err := r.sendOne(nb, false, &res); errors.Is(err, errEndpointClosed) {
			res.err = err
		}
	}
	res.dur = time.Since(start)
	return res
}

// sendOne builds peer nb's frame — this epoch's payload when full, else an
// empty notification — in the send scratch, delta-encoded against the
// peer's stream state, hands it to the transport and adds the send to res.
func (r *runner) sendOne(nb int, full bool, res *shareResult) error {
	p := core.Payload{From: r.shareP.From, Degree: r.shareP.Degree}
	need := 0 // data and empty bodies are small and settle: append sizes them
	if full {
		p = r.shareP
		if p.Model != nil {
			need = 1 + deltaHeaderMax + len(r.modelSection)
		}
	}
	var st deltaSendStats
	r.sendBody, st = r.encodeDeltaBody(append(grow(r.sendBody, need), kindGossipDelta), nb, p)
	frame := r.sendBody
	if r.cfg.Secure {
		t0 := time.Now()
		frame = r.seal(nb, r.sendBody[1:])
		res.seal += time.Since(t0)
	}
	t0 := time.Now()
	err := r.cfg.Endpoint.Send(nb, frame)
	res.wire += time.Since(t0)
	if err != nil {
		return err
	}
	n := int64(len(frame) - 1) // the kind byte is framing, not payload
	res.bytes += n
	res.wireBytes += n + 1 // with the kind byte
	res.rawBytes += st.raw
	res.refs += st.refs
	res.explicit += st.explicit
	if st.resync {
		res.resyncs++
	}
	return nil
}

// seal encrypts body for peer nb into sendSealed, behind the kind byte
// (which rides outside the seal).
func (r *runner) seal(nb int, body []byte) []byte {
	ch := r.channels[nb]
	r.sendSealed = append(grow(r.sendSealed, 1+seccha.SeqOverhead+len(body)+ch.Overhead()), kindGossipDelta)
	r.sendSealed = ch.SealSeqAppend(r.sendSealed, body)
	return r.sendSealed
}
