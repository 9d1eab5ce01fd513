package faultnet

import (
	"sync"
	"sync/atomic"
	"time"

	"rex/internal/runtime"
)

// Wrap returns ep with the scenario's fault schedule injected on outbound
// gossip frames sent by node `from`. Attestation traffic passes through
// untouched (the bootstrap handshake has no retry path; the paper runs it
// before any adversity matters). Every decision is a pure function of
// (scenario, edge, frame index), so wrapping both ends of every edge with
// the same spec reproduces the identical fault pattern run after run —
// including across the processes of a multi-process cluster.
//
// Fault semantics on the live wire:
//
//   - drop / partition: the frame is silently discarded at the sender. The
//     receiver sees a missed round (its RoundTimeout fires) and the grace
//     window (runtime.Config.PeerGrace) decides whether the peer survives.
//   - delay: the frame is held for the scheduled duration before being
//     handed to the transport. Holding happens on the sending path, which
//     keeps per-edge FIFO intact; scenarios keep delays well under the
//     round timeout.
//   - duplicate: the frame is enqueued twice back-to-back. Secure channels
//     absorb the copy via the explicit-sequence replay window; the native
//     build merges it again one round later.
//   - reorder: the frame is stashed and swapped with the next frame on the
//     same edge (the only reordering a per-peer-FIFO transport can
//     express). Close flushes any stashed frame so no final share is ever
//     stranded.
func Wrap(ep runtime.Endpoint, from int, sc *Scenario, log *Log) runtime.Endpoint {
	return &faultEndpoint{inner: ep, from: from, sc: sc, log: log,
		edges: make(map[int]*edgeState)}
}

type faultEndpoint struct {
	inner runtime.Endpoint
	from  int
	sc    *Scenario
	log   *Log

	mu    sync.Mutex // guards edges map
	edges map[int]*edgeState

	dropped, delayed atomic.Int64
	once             sync.Once
	closeErr         error
}

// edgeState is the per-directed-edge fault bookkeeping. Its mutex also
// serializes the actual sends of one edge, preserving FIFO through delays
// and swaps; sends to distinct peers never contend on it.
type edgeState struct {
	mu    sync.Mutex
	seq   int
	stash []byte // reorder-held frame, owned copy
	// stashDup marks a stashed frame that also drew the duplicate fault:
	// it is sent twice on release, matching the simulator's schedule.
	stashDup bool
}

func (f *faultEndpoint) edge(to int) *edgeState {
	f.mu.Lock()
	defer f.mu.Unlock()
	es := f.edges[to]
	if es == nil {
		es = &edgeState{}
		f.edges[to] = es
	}
	return es
}

// Send implements runtime.Endpoint.
func (f *faultEndpoint) Send(to int, data []byte) error {
	if !runtime.IsGossipFrame(data) {
		return f.inner.Send(to, data)
	}
	es := f.edge(to)
	es.mu.Lock()
	defer es.mu.Unlock()
	seq := es.seq
	es.seq++
	epoch := f.sc.EdgeEpoch(f.from, to, seq)

	if f.sc.Partitioned(f.from, to, epoch) {
		f.dropped.Add(1)
		f.log.Add(Event{Epoch: epoch, From: f.from, To: to, Kind: KindPartition})
		return nil
	}
	if f.sc.DropAt(f.from, to, epoch) {
		f.dropped.Add(1)
		f.log.Add(Event{Epoch: epoch, From: f.from, To: to, Kind: KindDrop})
		return nil
	}
	if d, ok := f.sc.DelayAt(f.from, to, epoch); ok {
		f.delayed.Add(1)
		f.log.Add(Event{Epoch: epoch, From: f.from, To: to, Kind: KindDelay})
		time.Sleep(d)
	}

	// A co-scheduled duplicate applies to this frame whether it is sent
	// now or stashed for the swap — the simulator delivers two copies in
	// both cases, and the live schedule must match it.
	dup := f.sc.DuplicateAt(f.from, to, epoch)
	if dup {
		f.log.Add(Event{Epoch: epoch, From: f.from, To: to, Kind: KindDuplicate})
	}

	// Reorder: hold this frame for the next one on the edge; if a frame is
	// already held, this send releases it (new frame first — the swap).
	if f.sc.ReorderAt(f.from, to, epoch) && es.stash == nil {
		es.stash = append([]byte(nil), data...)
		es.stashDup = dup
		f.log.Add(Event{Epoch: epoch, From: f.from, To: to, Kind: KindReorder})
		return nil
	}
	if err := f.inner.Send(to, data); err != nil {
		return err
	}
	if dup {
		if err := f.inner.Send(to, data); err != nil {
			return err
		}
	}
	if es.stash != nil {
		stash, stashDup := es.stash, es.stashDup
		es.stash, es.stashDup = nil, false
		if err := f.inner.Send(to, stash); err != nil {
			return err
		}
		if stashDup {
			if err := f.inner.Send(to, stash); err != nil {
				return err
			}
		}
	}
	return nil
}

// Inbox implements runtime.Endpoint.
func (f *faultEndpoint) Inbox() <-chan runtime.Envelope { return f.inner.Inbox() }

// Done implements runtime.Endpoint.
func (f *faultEndpoint) Done() <-chan struct{} { return f.inner.Done() }

// Close flushes reorder-stashed frames (a stranded final share would
// deadlock its receiver) and closes the wrapped endpoint.
func (f *faultEndpoint) Close() error {
	f.once.Do(func() {
		f.mu.Lock()
		edges := make(map[int]*edgeState, len(f.edges))
		for to, es := range f.edges {
			edges[to] = es
		}
		f.mu.Unlock()
		for to, es := range edges {
			es.mu.Lock()
			if es.stash != nil {
				f.inner.Send(to, es.stash) // best effort; the peer may be gone
				if es.stashDup {
					f.inner.Send(to, es.stash)
				}
				es.stash, es.stashDup = nil, false
			}
			es.mu.Unlock()
		}
		f.closeErr = f.inner.Close()
	})
	return f.closeErr
}

// SendQueueHWM implements runtime.QueueReporter by delegation.
func (f *faultEndpoint) SendQueueHWM() int {
	if q, ok := f.inner.(runtime.QueueReporter); ok {
		return q.SendQueueHWM()
	}
	return 0
}

// FaultCounts implements runtime.FaultReporter.
func (f *faultEndpoint) FaultCounts() (dropped, delayed int64) {
	return f.dropped.Load(), f.delayed.Load()
}

// absentFunc exposes the churn schedule in the shape runtime.Config.Absent
// expects, or nil when the scenario has no churn.
func (s *Scenario) absentFunc() func(node, epoch int) bool {
	if len(s.Churn) == 0 {
		return nil
	}
	return s.Absent
}

// skipExpect reports that the frame `from` would have sent to `self` at
// `epoch` is scheduled away — the oracle-detection hook.
func (s *Scenario) skipExpect(self, from, epoch int) bool {
	return s.DropAt(from, self, epoch) || s.Partitioned(from, self, epoch)
}

// ApplyRun configures one live node for this scenario: the endpoint is
// wrapped and the failure-detector knobs (round timeout, grace, rejoin,
// churn oracle) are set. Every node of the cluster, in this process or
// another, must apply the same scenario for the schedule to stay globally
// consistent.
func (s *Scenario) ApplyRun(cfg *runtime.Config, log *Log) {
	self := cfg.Node.Cfg.ID
	cfg.Endpoint = Wrap(cfg.Endpoint, self, s, log)
	if s.TimeoutMs > 0 {
		cfg.RoundTimeout = s.Timeout()
	}
	if s.GraceRounds > 0 {
		cfg.PeerGrace = s.GraceRounds
	}
	if s.Rejoin {
		cfg.Rejoin = true
	}
	cfg.Absent = s.absentFunc()
	if s.Oracle {
		cfg.SkipExpect = func(from, epoch int) bool { return s.skipExpect(self, from, epoch) }
	}
}
