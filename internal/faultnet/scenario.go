// Package faultnet is REX's deterministic chaos harness: a declarative
// Scenario describes network adversity — per-edge message drop, delay,
// duplication and reordering, scheduled partitions (split-brain at epoch E,
// healed at epoch F) and node churn (leave/rejoin, generalizing the
// simulator's permanent FailAt crashes) — and every fault decision is a
// pure function of (scenario seed, edge, epoch). The same spec therefore
// replays the identical fault schedule bit-for-bit across processes and
// runs, which is what lets the conformance suite
// (internal/faultnet/scenariotest) assert replay determinism on the
// simulator, the in-process ChanNet cluster and a TCP cluster of one
// TCPNet per node alike.
//
// The package has two halves: the schedule (this file), consulted by
// internal/sim for epoch-level fault injection, and the transport wrapper
// (wrap.go), which injects the same faults under any live
// runtime.Endpoint. Scenario.ApplyRun is the one way a live node takes a
// scenario, whether its cluster runs in one process or one process per
// node (rexd -scenario).
package faultnet

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"time"
)

// Partition cuts the network into groups for the epoch range [From, Until):
// traffic between two nodes listed in different groups is dropped; nodes
// not listed in any group are unaffected.
type Partition struct {
	From   int     `json:"from"`
	Until  int     `json:"until"`
	Groups [][]int `json:"groups"`
}

// Churn takes one node offline for the epoch range [Leave, Rejoin): it
// stops gathering, training and sharing, and neighbors neither send to nor
// wait for it (the oracle-detected leave, exactly like sim.Config.FailAt
// models crashes). Rejoin <= Leave makes the leave permanent.
type Churn struct {
	Node   int `json:"node"`
	Leave  int `json:"leave"`
	Rejoin int `json:"rejoin"`
}

// Scenario is one declarative fault schedule. The zero value injects
// nothing. All probabilities are per directed edge per epoch; every
// decision is derived from Seed by hashing, never from shared mutable RNG
// state, so decisions are independent of evaluation order and identical in
// every process of a multi-process cluster.
type Scenario struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	// Epochs is the schedule horizon (the run length the scenario was
	// written for); the reorder fault uses it to avoid stashing a sender's
	// final frame. Validate rejects a negative horizon and nothing more:
	// partitions and churn may reach past it, and 0 means no horizon.
	Epochs int `json:"epochs"`

	// Drop is the probability a gossip frame is silently discarded.
	Drop float64 `json:"drop,omitempty"`
	// Delay is the probability a frame is delayed; DelayMs/DelayJitterMs
	// give the base and the deterministic jitter bound (milliseconds).
	Delay         float64 `json:"delay,omitempty"`
	DelayMs       int     `json:"delay_ms,omitempty"`
	DelayJitterMs int     `json:"delay_jitter_ms,omitempty"`
	// Duplicate is the probability a frame is delivered twice.
	Duplicate float64 `json:"duplicate,omitempty"`
	// Reorder is the probability a frame swaps places with the next frame
	// on the same directed edge.
	Reorder float64 `json:"reorder,omitempty"`

	Partitions []Partition `json:"partitions,omitempty"`
	Churn      []Churn     `json:"churn,omitempty"`

	// GraceRounds is how many consecutive missed rounds the live runner's
	// failure detector tolerates per neighbor before dropping it
	// (runtime.Config.PeerGrace); scenarios with partitions set it at
	// least as long as the partition unless they mean to exercise the
	// drop/rejoin path.
	GraceRounds int `json:"grace_rounds,omitempty"`
	// Rejoin readmits failure-detector-dropped peers when their gossip
	// resumes (runtime.Config.Rejoin), and keeps probing them meanwhile.
	Rejoin bool `json:"rejoin,omitempty"`
	// TimeoutMs is the live round timeout (runtime.Config.RoundTimeout)
	// and the per-round timeout charge in the simulator's cost model when
	// an expected frame was faulted away.
	TimeoutMs int `json:"timeout_ms,omitempty"`
	// Oracle selects oracle fault detection for the live runner: receivers
	// are told the drop/partition schedule and skip waiting for frames
	// that will never arrive. This eliminates the race between the first
	// healed/substituted frame and a symmetric round timeout, so live
	// replays are bit-exact — the property the conformance suite asserts.
	// (The simulator is always oracle; its TimeoutMs charge models the
	// detector's cost.) With Oracle false, scheduled losses surface only
	// through the round-timeout failure detector: realistic, and the mode
	// the liveness and grace/rejoin suites exercise, but heal-boundary
	// timing may race the timeout, so replay there asserts invariants
	// rather than bit-equality.
	Oracle bool `json:"oracle,omitempty"`
}

// Load reads and validates a scenario from a JSON file.
func Load(path string) (*Scenario, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("faultnet: %w", err)
	}
	return Parse(b)
}

// Parse decodes and validates a JSON scenario.
func Parse(b []byte) (*Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("faultnet: parsing scenario: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// maxMs is the longest millisecond count a time.Duration holds.
const maxMs = int64(math.MaxInt64 / time.Millisecond)

// Validate checks the spec for internally inconsistent values.
func (s *Scenario) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"drop", s.Drop}, {"delay", s.Delay}, {"duplicate", s.Duplicate}, {"reorder", s.Reorder}} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("faultnet: %s probability %v outside [0,1]", p.name, p.v)
		}
	}
	if s.DelayMs < 0 || s.DelayJitterMs < 0 || s.TimeoutMs < 0 || s.GraceRounds < 0 || s.Epochs < 0 {
		return fmt.Errorf("faultnet: negative duration, grace or epochs")
	}
	// DelayAt adds up to the whole jitter to the base delay. (Subtracting
	// keeps the check itself from overflowing: both values are >= 0.)
	if int64(s.DelayMs) > maxMs-int64(s.DelayJitterMs) || int64(s.TimeoutMs) > maxMs {
		return fmt.Errorf("faultnet: delay_ms + delay_jitter_ms or timeout_ms past %d ms overflows a duration", maxMs)
	}
	for i, p := range s.Partitions {
		if p.Until <= p.From || p.From < 0 {
			return fmt.Errorf("faultnet: partition %d range [%d,%d) is empty", i, p.From, p.Until)
		}
		if len(p.Groups) < 2 {
			return fmt.Errorf("faultnet: partition %d needs at least two groups", i)
		}
		seen := map[int]bool{}
		for _, g := range p.Groups {
			for _, n := range g {
				if seen[n] {
					return fmt.Errorf("faultnet: partition %d lists node %d twice", i, n)
				}
				seen[n] = true
			}
		}
	}
	for i, c := range s.Churn {
		if c.Leave < 0 || c.Node < 0 {
			return fmt.Errorf("faultnet: churn %d has negative node or epoch", i)
		}
	}
	return nil
}

// Enabled reports whether the scenario injects anything at all.
func (s *Scenario) Enabled() bool {
	if s == nil {
		return false
	}
	return s.Drop > 0 || s.Delay > 0 || s.Duplicate > 0 || s.Reorder > 0 ||
		len(s.Partitions) > 0 || len(s.Churn) > 0
}

// Fault decision salts: independent hash streams per fault kind.
const (
	saltDrop uint64 = iota + 1
	saltDelay
	saltDelayJitter
	saltDuplicate
	saltReorder
)

// splitmix64 is the SplitMix64 finalizer: a full-avalanche 64-bit mixer
// with no shared state, so fault decisions commute across goroutines and
// processes.
func splitmix64(z uint64) uint64 {
	z += 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// roll returns a uniform value in [0,1) for one (kind, edge, epoch) cell.
func (s *Scenario) roll(salt uint64, from, to, epoch int) float64 {
	h := splitmix64(uint64(s.Seed) ^ salt*0xD6E8FEB86659FD93)
	h = splitmix64(h ^ uint64(uint32(from)))
	h = splitmix64(h ^ uint64(uint32(to))<<20)
	h = splitmix64(h ^ uint64(uint32(epoch))<<40)
	return float64(h>>11) / (1 << 53)
}

// DropAt reports whether the gossip frame sent on edge from->to at the
// sender's given epoch is dropped.
func (s *Scenario) DropAt(from, to, epoch int) bool {
	return s != nil && s.Drop > 0 && s.roll(saltDrop, from, to, epoch) < s.Drop
}

// DelayAt reports the injected delay for the frame, if any.
func (s *Scenario) DelayAt(from, to, epoch int) (time.Duration, bool) {
	if s == nil || s.Delay <= 0 || s.roll(saltDelay, from, to, epoch) >= s.Delay {
		return 0, false
	}
	d := time.Duration(s.DelayMs) * time.Millisecond
	if s.DelayJitterMs > 0 {
		j := s.roll(saltDelayJitter, from, to, epoch)
		d += time.Duration(j * float64(s.DelayJitterMs) * float64(time.Millisecond))
	}
	return d, true
}

// DuplicateAt reports whether the frame is delivered twice.
func (s *Scenario) DuplicateAt(from, to, epoch int) bool {
	return s != nil && s.Duplicate > 0 && s.roll(saltDuplicate, from, to, epoch) < s.Duplicate
}

// ReorderAt reports whether the frame swaps with the next frame on the
// same directed edge. The final scheduled frame of an edge never reorders
// (there is no next frame to swap with — stashing it would strand it).
func (s *Scenario) ReorderAt(from, to, epoch int) bool {
	if s == nil || s.Reorder <= 0 {
		return false
	}
	if s.Epochs > 0 && !s.edgeSendsAfter(from, to, epoch) {
		return false
	}
	return s.roll(saltReorder, from, to, epoch) < s.Reorder
}

// edgeSendsAfter reports whether edge from->to carries another scheduled
// frame at any epoch in (epoch, Epochs-1]; the -1 is because a frame sent
// at the final epoch requires the receiver active one epoch past the end,
// which SendsAt treats as always true.
func (s *Scenario) edgeSendsAfter(from, to, epoch int) bool {
	for e := epoch + 1; e < s.Epochs; e++ {
		if s.SendsAt(from, to, e) {
			return true
		}
	}
	return false
}

// Partitioned reports whether edge from->to is cut by a scheduled
// partition at the sender's given epoch.
func (s *Scenario) Partitioned(from, to, epoch int) bool {
	if s == nil {
		return false
	}
	for _, p := range s.Partitions {
		if epoch < p.From || epoch >= p.Until {
			continue
		}
		gf, gt := -1, -1
		for gi, g := range p.Groups {
			for _, n := range g {
				if n == from {
					gf = gi
				}
				if n == to {
					gt = gi
				}
			}
		}
		if gf >= 0 && gt >= 0 && gf != gt {
			return true
		}
	}
	return false
}

// Absent reports whether a node is churned away at an epoch.
func (s *Scenario) Absent(node, epoch int) bool {
	if s == nil || epoch < 0 {
		return false
	}
	for _, c := range s.Churn {
		if c.Node != node || epoch < c.Leave {
			continue
		}
		if c.Rejoin <= c.Leave || epoch < c.Rejoin {
			return true
		}
	}
	return false
}

// SendsAt reports whether the runner schedules a gossip frame on edge
// from->to at the sender's given epoch: the sender must be active, and the
// receiver active both this epoch and the next (the epoch at which it
// gathers the frame) — the oracle-churn rule that keeps stale frames out
// of rejoining nodes' inboxes. Epochs at or past the horizon count as
// active.
func (s *Scenario) SendsAt(from, to, epoch int) bool {
	if s == nil {
		return true
	}
	if s.Absent(from, epoch) || s.Absent(to, epoch) {
		return false
	}
	if s.Epochs > 0 && epoch+1 >= s.Epochs {
		return true
	}
	return !s.Absent(to, epoch+1)
}

// EdgeEpoch maps the seq-th frame actually sent on edge from->to (counting
// from 0) back to the sender epoch it belongs to, skipping epochs where
// the schedule suppresses the send. The transport wrapper uses it to
// attribute wire frames to epochs without any in-band tagging.
func (s *Scenario) EdgeEpoch(from, to, seq int) int {
	if s == nil || len(s.Churn) == 0 {
		return seq
	}
	e := 0
	for skipped := 0; ; e++ {
		if s.SendsAt(from, to, e) {
			if seq == 0 {
				return e
			}
			seq--
		} else if skipped++; skipped > 1<<16 {
			return e // permanent churn: clamp rather than loop forever
		}
	}
}

// Timeout returns TimeoutMs as a duration (0 when unset).
func (s *Scenario) Timeout() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.TimeoutMs) * time.Millisecond
}

// Event kinds recorded in fault logs.
const (
	KindDrop      = "drop"
	KindDelay     = "delay"
	KindDuplicate = "duplicate"
	KindReorder   = "reorder"
	KindPartition = "partition"
	KindLeave     = "leave"
	KindRejoin    = "rejoin"
)

// Event is one fault actually injected at run time (not merely scheduled):
// a frame that existed and was dropped, delayed, duplicated or reordered,
// or a node that left or rejoined. Replay determinism asserts the full
// event multiset matches across runs.
type Event struct {
	Epoch int    `json:"epoch"`
	From  int    `json:"from"`
	To    int    `json:"to"`
	Kind  string `json:"kind"`
}

func (e Event) String() string {
	return fmt.Sprintf("e%d %d->%d %s", e.Epoch, e.From, e.To, e.Kind)
}

// Counts aggregates injected faults.
type Counts struct {
	Dropped, Delayed, Duplicated, Reordered int64
	PartitionDrops                          int64
	Leaves, Rejoins                         int64
}

// Log collects fault events from concurrent injectors. Events() returns a
// canonically sorted copy so logs from different runs compare directly
// regardless of goroutine interleaving.
type Log struct {
	mu     sync.Mutex
	events []Event
}

// Add records one event.
func (l *Log) Add(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.events = append(l.events, ev)
	l.mu.Unlock()
}

// Events returns the canonically ordered event list.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	out := append([]Event(nil), l.events...)
	l.mu.Unlock()
	SortEvents(out)
	return out
}

// SortEvents orders events canonically: epoch, then sender, receiver, kind.
func SortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Epoch != b.Epoch {
			return a.Epoch < b.Epoch
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Kind < b.Kind
	})
}

// Counts tallies the log.
func (l *Log) Counts() Counts {
	var c Counts
	for _, ev := range l.Events() {
		switch ev.Kind {
		case KindDrop:
			c.Dropped++
		case KindDelay:
			c.Delayed++
		case KindDuplicate:
			c.Duplicated++
		case KindReorder:
			c.Reordered++
		case KindPartition:
			c.PartitionDrops++
			c.Dropped++
		case KindLeave:
			c.Leaves++
		case KindRejoin:
			c.Rejoins++
		}
	}
	return c
}

// Canned returns the named scenario library the conformance suite runs
// against every backend. The partition and churn schedules reference node
// ids 0..3 — the suite's 4-node workload; Seed/Epochs are part of the spec
// so the same JSON replays identically anywhere.
func Canned() []Scenario {
	return []Scenario{
		{
			Name: "faultfree", Seed: 11, Epochs: 6,
		},
		{
			Name: "lossy", Seed: 12, Epochs: 6,
			Drop: 0.08, Delay: 0.2, DelayMs: 2, DelayJitterMs: 4,
			GraceRounds: 6, Rejoin: true, TimeoutMs: 5000, Oracle: true,
		},
		{
			Name: "flaky", Seed: 13, Epochs: 6,
			Duplicate: 0.10, Reorder: 0.08, Delay: 0.15, DelayMs: 1, DelayJitterMs: 3,
			GraceRounds: 6, Rejoin: true, TimeoutMs: 5000, Oracle: true,
		},
		{
			Name: "split-heal", Seed: 14, Epochs: 6,
			Partitions:  []Partition{{From: 2, Until: 3, Groups: [][]int{{0, 1}, {2, 3}}}},
			GraceRounds: 6, Rejoin: true, TimeoutMs: 5000, Oracle: true,
		},
		{
			Name: "churn", Seed: 15, Epochs: 6,
			Churn: []Churn{{Node: 3, Leave: 2, Rejoin: 4}},
		},
	}
}

// CannedByName returns a canned scenario by name.
func CannedByName(name string) (Scenario, bool) {
	for _, s := range Canned() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// Resolve turns a CLI -scenario argument into a scenario: a canned name
// first, else a JSON spec file path.
func Resolve(arg string) (*Scenario, error) {
	if sc, ok := CannedByName(arg); ok {
		return &sc, nil
	}
	return Load(arg)
}
