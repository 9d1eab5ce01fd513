// Package gossip provides the two dissemination schemes REX supports
// (paper §III-C): random model walk (RMW, gossip learning — unicast to one
// random neighbor per epoch) and decentralized parallel SGD (D-PSGD —
// broadcast to all neighbors with Metropolis–Hastings-weighted merging).
// Whether the payload is a model (MS) or raw data (REX/DS) is orthogonal
// and handled by core.
package gossip

import (
	"fmt"
	"math/rand"

	"rex/internal/topology"
)

// Algo selects the dissemination scheme.
type Algo int

const (
	// RMW sends to one uniformly random neighbor each epoch (§III-C1).
	RMW Algo = iota
	// DPSGD sends to every neighbor each epoch (§III-C2).
	DPSGD
)

// String implements fmt.Stringer.
func (a Algo) String() string {
	switch a {
	case RMW:
		return "RMW"
	case DPSGD:
		return "D-PSGD"
	default:
		return fmt.Sprintf("Algo(%d)", int(a))
	}
}

// ParseAlgo converts a CLI name into an Algo.
func ParseAlgo(s string) (Algo, error) {
	switch s {
	case "rmw", "RMW":
		return RMW, nil
	case "dpsgd", "d-psgd", "DPSGD", "D-PSGD":
		return DPSGD, nil
	}
	return 0, fmt.Errorf("gossip: unknown algorithm %q (want rmw or dpsgd)", s)
}

// TargetsAppend appends the neighbors node i shares with in the current
// epoch to dst (usually a recycled scratch slice) and returns the extended
// slice: one random neighbor under RMW, all neighbors under D-PSGD. The
// result never aliases graph storage and is safe to retain until the
// caller reuses the buffer.
func TargetsAppend(dst []int, a Algo, g topology.Source, i int, rng *rand.Rand) []int {
	switch a {
	case RMW:
		j := topology.RandomNeighborOf(g, i, rng)
		if j < 0 {
			return dst
		}
		return append(dst, j)
	case DPSGD:
		return append(dst, g.Neighbors(i)...)
	default:
		panic("gossip: unknown algorithm")
	}
}
