// Package peersampling implements the gossip-based peer-sampling service
// the paper's background cites for decentralized systems (§II-B,
// Jelasity et al., "Gossip-based peer sampling", ACM TOCS 2007): each node
// maintains a small partial view of the network and periodically swaps
// halves of it with a random peer, which keeps the induced overlay
// connected and low-diameter without any global membership.
// REX deployments can bootstrap and maintain their communication graph
// with this service instead of a static topology.
package peersampling

import (
	"math/rand"
	"sort"

	"rex/internal/topology"
)

// Descriptor is one view entry: a peer and the age of the information.
type Descriptor struct {
	ID  int
	Age int
}

// Config parameterizes the protocol.
type Config struct {
	// ViewSize is the partial-view capacity c (typically 8-30).
	ViewSize int
	// SwapSize is how many descriptors are exchanged per round (<= c/2).
	SwapSize int
}

// DefaultConfig returns a robust configuration.
func DefaultConfig() Config { return Config{ViewSize: 12, SwapSize: 6} }

// Service simulates peer sampling for n nodes (round-synchronous). It is
// the membership substrate; use Snapshot to materialize the current
// overlay as a topology.Graph for the REX simulator.
type Service struct {
	cfg   Config
	views [][]Descriptor
	rng   *rand.Rand
}

// New creates the service with ring-initialized views (each node knows
// its successors — the minimal bootstrap knowledge).
func New(n int, cfg Config, rng *rand.Rand) *Service {
	if cfg.ViewSize <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.SwapSize <= 0 || cfg.SwapSize > cfg.ViewSize {
		cfg.SwapSize = cfg.ViewSize / 2
	}
	s := &Service{cfg: cfg, rng: rng}
	s.views = make([][]Descriptor, n)
	for i := 0; i < n; i++ {
		view := make([]Descriptor, 0, cfg.ViewSize)
		for d := 1; d <= cfg.ViewSize && d < n; d++ {
			view = append(view, Descriptor{ID: (i + d) % n})
		}
		s.views[i] = view
	}
	return s
}

// Step runs one synchronous gossip round: every node ages its view, picks
// its oldest peer, and the pair exchange SwapSize descriptors.
func (s *Service) Step() {
	order := s.rng.Perm(len(s.views))
	for _, i := range order {
		for k := range s.views[i] {
			s.views[i][k].Age++
		}
		j := s.selectPeer(i)
		if j < 0 {
			continue
		}
		s.exchange(i, j)
	}
}

// selectPeer returns node i's oldest view entry, or -1 for an empty view.
func (s *Service) selectPeer(i int) int {
	view := s.views[i]
	if len(view) == 0 {
		return -1
	}
	sort.Slice(view, func(a, b int) bool { return view[a].Age > view[b].Age })
	return view[0].ID
}

// exchange swaps descriptor buffers between i and j and merges.
func (s *Service) exchange(i, j int) {
	bi := s.buffer(i)
	bj := s.buffer(j)
	s.merge(i, bj)
	s.merge(j, bi)
}

// buffer builds the descriptors node i sends: itself (age 0) plus a
// random sample of its view.
func (s *Service) buffer(i int) []Descriptor {
	buf := []Descriptor{{ID: i, Age: 0}}
	view := s.views[i]
	idx := s.rng.Perm(len(view))
	for _, k := range idx {
		if len(buf) >= s.cfg.SwapSize {
			break
		}
		buf = append(buf, view[k])
	}
	return buf
}

// merge folds received descriptors into node i's view: dedup by id keeping
// the freshest, drop self, then trim to capacity by dropping the oldest
// (the healer policy of the original protocol).
func (s *Service) merge(i int, received []Descriptor) {
	byID := make(map[int]Descriptor, len(s.views[i])+len(received))
	keep := func(d Descriptor) {
		if d.ID == i {
			return
		}
		if prev, ok := byID[d.ID]; !ok || d.Age < prev.Age {
			byID[d.ID] = d
		}
	}
	for _, d := range s.views[i] {
		keep(d)
	}
	for _, d := range received {
		keep(d)
	}
	merged := make([]Descriptor, 0, len(byID))
	for _, d := range byID {
		merged = append(merged, d)
	}
	sort.Slice(merged, func(a, b int) bool {
		if merged[a].Age != merged[b].Age {
			return merged[a].Age < merged[b].Age
		}
		return merged[a].ID < merged[b].ID
	})
	if len(merged) > s.cfg.ViewSize {
		merged = merged[:s.cfg.ViewSize]
	}
	s.views[i] = merged
}

// Snapshot materializes the current overlay as an undirected graph: an
// edge (i, j) exists when either node holds the other in its view.
func (s *Service) Snapshot() *topology.Graph {
	g := topology.NewGraph(len(s.views))
	for i, view := range s.views {
		for _, d := range view {
			g.AddEdge(i, d.ID)
		}
	}
	return g
}
