package loadgen

import (
	"math"
)

// Every event decision below is a pure function of (spec.Seed, user,
// tick, event index): no RNG state threads through the schedule, so any
// subset of it can be derived independently — by any worker, on any
// machine, in any order — and the full schedule is identical every time.
// This is the property that makes a load test replayable: the sim driver
// and a live-cluster run see the same events.

// mix64 is the splitmix64 finalizer, the same bijective mixer the
// streamed topologies use for (seed, id) edge decisions.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// unitFloat maps a hash to [0, 1) with 53 bits of precision.
func unitFloat(h uint64) float64 {
	return float64(h>>11) / (1 << 53)
}

// Hash salts, one per independent decision stream.
const (
	saltCount = 0x9E3779B97F4A7C15 // fractional event-count Bernoulli
	saltEvent = 0xC2B2AE3D27D4EB4F // per-event hash chain base
	saltKind  = 0x165667B19E3779F9 // query vs write
	saltItem  = 0x27D4EB2F165667C5 // item choice
	saltFocus = 0x85EBCA77C2B2AE63 // flash-crowd redirect
	saltValue = 0xA24BAED4963EE407 // rating value
	saltRank  = 0x589965CC75374CC3 // user activity-rank permutation
)

// Kind says what a generated event does to the cluster.
type Kind uint8

const (
	// Write is a POST /rate of one rating.
	Write Kind = iota
	// Query is a GET /recommend.
	Query
)

// Event is one generated request.
type Event struct {
	// Tick is the schedule slot the event fires in.
	Tick int
	// Seq is the event's index within its (tick, user) burst.
	Seq int
	// User is the acting user id.
	User uint32
	// Kind selects write vs query.
	Kind Kind
	// Item is the rated item (writes only).
	Item uint32
	// Value is the rating value in half stars (writes only).
	Value float32
	// N is the query depth (queries only).
	N int
}

// Digest folds one event into a 64-bit fingerprint. Schedule digests XOR
// per-event digests, so they are order-independent: dispatching the same
// events from a different number of workers — or comparing a sim run to
// a live replay — yields the same digest iff the event sets match.
func (e Event) Digest() uint64 {
	h := mix64(uint64(e.Tick)<<40 ^ uint64(e.Seq)<<32 ^ uint64(e.User))
	h = mix64(h ^ uint64(e.Kind)<<56 ^ uint64(e.Item)<<16 ^ uint64(math.Float32bits(e.Value)))
	return mix64(h ^ uint64(e.N))
}

// Gen derives the event schedule of one spec. Construction precomputes
// the per-user activity weights; everything per tick is derived on
// demand.
type Gen struct {
	spec *Spec
	// weight is each user's activity multiplier (mean 1 across users):
	// user u's Zipf rank comes from a seed-derived affine permutation of
	// the id space, so "who is a heavy hitter" varies with the seed while
	// the weight profile stays exactly Zipf(s).
	weight []float64
}

// NewGen builds the generator for a validated spec.
func NewGen(spec *Spec) *Gen {
	n := spec.Users
	g := &Gen{spec: spec, weight: make([]float64, n)}
	if spec.ZipfS == 0 {
		for u := range g.weight {
			g.weight[u] = 1
		}
		return g
	}
	// Normalize (rank+1)^-s to mean 1 over the population.
	var sum float64
	rankWeight := make([]float64, n)
	for r := 0; r < n; r++ {
		rankWeight[r] = math.Pow(float64(r+1), -spec.ZipfS)
		sum += rankWeight[r]
	}
	// Affine rank permutation: rank(u) = (a·u + b) mod n, a coprime to n.
	a := mix64(spec.Seed^saltRank)%uint64(n) + 1
	for gcdU64(a, uint64(n)) != 1 {
		a = a%uint64(n) + 1
	}
	b := mix64(spec.Seed^saltRank^0xABCD) % uint64(n)
	scale := float64(n) / sum
	for u := 0; u < n; u++ {
		rank := (a*uint64(u) + b) % uint64(n)
		g.weight[u] = rankWeight[rank] * scale
	}
	return g
}

func gcdU64(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// rateAt is the expected number of events user u emits at tick t, after
// activity weighting, diurnal modulation and flash-crowd boosts.
func (g *Gen) rateAt(u, t int) float64 {
	r := g.spec.RatePerUserTick * g.weight[u]
	if d := g.spec.Diurnal; d != nil {
		r *= 1 + d.Amplitude*math.Sin(2*math.Pi*float64(t)/float64(d.PeriodTicks))
	}
	for _, f := range g.spec.FlashCrowds {
		if t >= f.StartTick && t < f.StartTick+f.Ticks {
			r *= f.Boost
		}
	}
	return r
}

// flashFocus returns the active flash-crowd redirect at tick t: the hot
// item and the fraction of writes pulled onto it. With overlapping
// windows the earliest-listed active window wins.
func (g *Gen) flashFocus(t int) (item uint32, focus float64, ok bool) {
	for _, f := range g.spec.FlashCrowds {
		if t >= f.StartTick && t < f.StartTick+f.Ticks && f.Focus > 0 {
			return f.Item, f.Focus, true
		}
	}
	return 0, 0, false
}

// countAt is the concrete number of events user u emits at tick t:
// floor(rate) plus a Bernoulli draw on the fractional part, decided by a
// hash — so expected counts match the spec's rates exactly while staying
// deterministic.
func (g *Gen) countAt(u, t int) int {
	r := g.rateAt(u, t)
	base := int(r)
	frac := r - float64(base)
	if frac > 0 && unitFloat(mix64(g.spec.Seed^saltCount^uint64(u)<<24^uint64(t))) < frac {
		base++
	}
	return base
}

// eventAt derives the k-th event of user u at tick t.
func (g *Gen) eventAt(u, t, k int) Event {
	spec := g.spec
	h := mix64(spec.Seed ^ saltEvent ^ uint64(u)<<24 ^ uint64(t))
	hk := mix64(h ^ uint64(k)*0xD6E8FEB86659FD93)
	ev := Event{Tick: t, Seq: k, User: uint32(u)}
	if unitFloat(mix64(hk^saltKind)) < spec.QueryFraction {
		ev.Kind = Query
		ev.N = spec.topN()
		return ev
	}
	ev.Kind = Write
	ev.Item = uint32(mix64(hk^saltItem) % uint64(spec.Items))
	if hot, focus, ok := g.flashFocus(t); ok && unitFloat(mix64(hk^saltFocus)) < focus {
		ev.Item = hot
	}
	// Half-star values 0.5..5.0, the MovieLens rating scale.
	ev.Value = float32(mix64(hk^saltValue)%10+1) / 2
	return ev
}

// EventsAt appends tick t's full event list (user order, then burst
// order) to dst and returns it.
func (g *Gen) EventsAt(t int, dst []Event) []Event {
	for u := 0; u < g.spec.Users; u++ {
		for k, c := 0, g.countAt(u, t); k < c; k++ {
			dst = append(dst, g.eventAt(u, t, k))
		}
	}
	return dst
}

// ScheduleDigest folds the whole schedule into one fingerprint (see
// Event.Digest for the order-independence contract).
func (g *Gen) ScheduleDigest() uint64 {
	var d uint64
	var buf []Event
	for t := 0; t < g.spec.Ticks; t++ {
		buf = g.EventsAt(t, buf[:0])
		for _, ev := range buf {
			d ^= ev.Digest()
		}
	}
	return d
}
