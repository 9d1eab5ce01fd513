// Package loadgen is the declarative workload generator for REX serving
// clusters: a JSON spec describes per-user rating arrival rates,
// heavy-tailed (Zipf) user activity, diurnal rate modulation, the
// query:write mix, and flash crowds on hot items — and the generator
// turns it into a concrete event schedule where every event is a pure
// hash of (seed, user, tick). Like the faultnet fault scenarios, the
// same spec + seed always replays the identical schedule, so a load test
// is a reproducible experiment, not a dice roll: the schedule driven
// into an in-process engine cluster is event-for-event the schedule
// driven against a live rexd deployment.
//
// Run is the one load runner. It drives a schedule into a Target (an
// EngineCluster in sim mode, an HTTPTarget in live mode), optionally
// under a faultnet scenario the target carries, and judges the run it
// made: its error is the verdict, the first broken invariant among a
// schedule digest equal to the fault-free one, no acked rating missing
// from the final snapshots, outcomes that sum to the events, no 400s, at
// most 2 % transport failures, at most 75 % shed, and a scenario that
// injected faults. Report.Fprint writes the survival and fault summary
// and the latency tables.
package loadgen

import (
	"encoding/json"
	"fmt"
	"os"
)

// Diurnal modulates the global arrival rate sinusoidally:
// rate(t) = base · (1 + Amplitude·sin(2πt/PeriodTicks)), the day/night
// cycle of an interactive service compressed into the spec's tick scale.
type Diurnal struct {
	// Amplitude in [0, 1]: peak-to-mean rate ratio minus one.
	Amplitude float64 `json:"amplitude"`
	// PeriodTicks is the full cycle length in ticks.
	PeriodTicks int `json:"period_ticks"`
}

// FlashCrowd is a burst window on one hot item: while active it
// multiplies the overall arrival rate by Boost and redirects a Focus
// fraction of write events onto Item — the "everyone rates the new
// release" pattern.
type FlashCrowd struct {
	// Item is the hot item all redirected writes land on.
	Item uint32 `json:"item"`
	// StartTick is the first tick of the window.
	StartTick int `json:"start_tick"`
	// Ticks is the window length.
	Ticks int `json:"ticks"`
	// Boost multiplies every user's arrival rate inside the window (1 =
	// no rate change, just refocused writes).
	Boost float64 `json:"boost"`
	// Focus in [0, 1] is the fraction of writes redirected to Item.
	Focus float64 `json:"focus"`
}

// Spec is the declarative workload: everything the generator needs to
// derive the full event schedule as a pure function of Seed.
type Spec struct {
	// Name labels reports and canned specs.
	Name string `json:"name"`
	// Seed drives every event decision; same spec+seed = same schedule.
	Seed uint64 `json:"seed"`
	// Users is the simulated user population. Users are request sources;
	// they need not exist in the cluster's training data (ratings for
	// unseen users are how profiles bootstrap).
	Users int `json:"users"`
	// Items bounds the item ids events touch; must not exceed the
	// cluster's catalog (serve rejects out-of-catalog writes).
	Items int `json:"items"`
	// Ticks is the schedule length.
	Ticks int `json:"ticks"`
	// TickMillis is the real-time length of one tick when replaying
	// against a live cluster (the sim driver runs ticks back to back).
	// 0 = no pacing.
	TickMillis int `json:"tick_millis"`
	// RatePerUserTick is the mean number of events an average-activity
	// user emits per tick.
	RatePerUserTick float64 `json:"rate_per_user_tick"`
	// ZipfS is the Zipf exponent of per-user activity: user activity
	// rank r gets weight ∝ (r+1)^-ZipfS, normalized to mean 1. 0 =
	// uniform activity.
	ZipfS float64 `json:"zipf_s"`
	// QueryFraction in [0, 1] is the probability an event is a
	// /recommend query rather than a /rate write.
	QueryFraction float64 `json:"query_fraction"`
	// TopN is the n= each query asks for (default 10).
	TopN int `json:"top_n,omitempty"`
	// Diurnal, when set, modulates the rate over time.
	Diurnal *Diurnal `json:"diurnal,omitempty"`
	// FlashCrowds lists burst windows; overlapping windows multiply.
	FlashCrowds []FlashCrowd `json:"flash_crowds,omitempty"`
}

// maxUsers caps Spec.Users. User ids are uint32 on the wire, so 2^32 is
// the hard limit, but NewGen holds 16 B per user up front and every tick
// walks the whole population: 2^24 users (256 MB, a hundred times
// MovieLens-25M's population) is the most one load generator builds.
const maxUsers = 1 << 24

// maxItems caps Spec.Items: item ids are uint32 on the wire.
const maxItems = 1 << 32

// maxTickRate caps a spec's peak mean arrival rate, events per tick over
// the whole population: EventsAt materializes a tick's events at once, and
// a rate whose per-user count overflows int would wrap negative and
// silently emit nothing.
const maxTickRate = 1 << 24

// Validate checks the spec for structural soundness.
func (s *Spec) Validate() error {
	if s.Users <= 0 || s.Users > maxUsers {
		return fmt.Errorf("loadgen: users must be in [1, %d] (got %d)", maxUsers, s.Users)
	}
	if s.Items <= 0 || uint64(s.Items) > maxItems {
		return fmt.Errorf("loadgen: items must be in [1, %d] (got %d)", uint64(maxItems), s.Items)
	}
	if s.Ticks <= 0 {
		return fmt.Errorf("loadgen: ticks must be positive (got %d)", s.Ticks)
	}
	if s.TickMillis < 0 {
		return fmt.Errorf("loadgen: tick_millis must be >= 0 (got %d)", s.TickMillis)
	}
	if s.RatePerUserTick < 0 {
		return fmt.Errorf("loadgen: rate_per_user_tick must be >= 0 (got %v)", s.RatePerUserTick)
	}
	if s.ZipfS < 0 {
		return fmt.Errorf("loadgen: zipf_s must be >= 0 (got %v)", s.ZipfS)
	}
	if s.QueryFraction < 0 || s.QueryFraction > 1 {
		return fmt.Errorf("loadgen: query_fraction must be in [0, 1] (got %v)", s.QueryFraction)
	}
	if s.TopN < 0 {
		return fmt.Errorf("loadgen: top_n must be >= 0 (got %d)", s.TopN)
	}
	if d := s.Diurnal; d != nil {
		if d.Amplitude < 0 || d.Amplitude > 1 {
			return fmt.Errorf("loadgen: diurnal amplitude must be in [0, 1] (got %v)", d.Amplitude)
		}
		if d.PeriodTicks <= 0 {
			return fmt.Errorf("loadgen: diurnal period_ticks must be positive (got %d)", d.PeriodTicks)
		}
	}
	peak := s.RatePerUserTick * float64(s.Users)
	if s.Diurnal != nil {
		peak *= 1 + s.Diurnal.Amplitude
	}
	for _, f := range s.FlashCrowds {
		peak *= max(1, f.Boost)
	}
	if peak > maxTickRate {
		return fmt.Errorf("loadgen: peak rate of %g events per tick exceeds %d", peak, maxTickRate)
	}
	for i, f := range s.FlashCrowds {
		if int(f.Item) >= s.Items {
			return fmt.Errorf("loadgen: flash crowd %d: item %d outside catalog of %d", i, f.Item, s.Items)
		}
		if f.Ticks <= 0 {
			return fmt.Errorf("loadgen: flash crowd %d: ticks must be positive (got %d)", i, f.Ticks)
		}
		if f.StartTick < 0 {
			return fmt.Errorf("loadgen: flash crowd %d: start_tick must be >= 0 (got %d)", i, f.StartTick)
		}
		if f.Boost < 0 {
			return fmt.Errorf("loadgen: flash crowd %d: boost must be >= 0 (got %v)", i, f.Boost)
		}
		if f.Focus < 0 || f.Focus > 1 {
			return fmt.Errorf("loadgen: flash crowd %d: focus must be in [0, 1] (got %v)", i, f.Focus)
		}
	}
	return nil
}

// topN returns the effective query depth.
func (s *Spec) topN() int {
	if s.TopN <= 0 {
		return 10
	}
	return s.TopN
}

// Parse decodes and validates a JSON spec.
func Parse(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("loadgen: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads a spec from a JSON file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}
	return Parse(data)
}

// Canned returns the built-in workload specs, the load-test counterparts
// of faultnet's canned fault scenarios. Item populations fit the default
// rexd -scale 0.1 catalog (900 items), so every canned spec runs against
// a stock 2-node quickstart cluster unchanged.
func Canned() []*Spec {
	return []*Spec{
		{
			// Uniform users, steady rate, read-heavy: the smoke-test
			// baseline whose percentiles isolate serving-path cost.
			Name: "steady", Seed: 1,
			Users: 200, Items: 200, Ticks: 20, TickMillis: 100,
			RatePerUserTick: 0.5, QueryFraction: 0.7,
		},
		{
			// Heavy-tailed activity under a diurnal swing: a few users
			// dominate the write stream while the global rate breathes.
			Name: "zipf-burst", Seed: 7,
			Users: 500, Items: 400, Ticks: 30, TickMillis: 100,
			RatePerUserTick: 0.4, ZipfS: 1.1, QueryFraction: 0.5,
			Diurnal: &Diurnal{Amplitude: 0.6, PeriodTicks: 20},
		},
		{
			// A 3x arrival spike with 80% of writes converging on one hot
			// item mid-run — the cache-unfriendly worst case for the
			// serving index.
			Name: "flashcrowd", Seed: 11,
			Users: 300, Items: 300, Ticks: 30, TickMillis: 100,
			RatePerUserTick: 0.3, ZipfS: 0.8, QueryFraction: 0.4,
			FlashCrowds: []FlashCrowd{
				{Item: 42, StartTick: 10, Ticks: 8, Boost: 3, Focus: 0.8},
			},
		},
	}
}

// CannedByName returns the named canned spec, or nil.
func CannedByName(name string) *Spec {
	for _, s := range Canned() {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Resolve turns a CLI argument into a spec: a canned name first, else a
// path to a JSON spec file — the same convention faultnet scenarios use.
func Resolve(arg string) (*Spec, error) {
	if s := CannedByName(arg); s != nil {
		return s, nil
	}
	s, err := Load(arg)
	if err != nil {
		names := ""
		for i, c := range Canned() {
			if i > 0 {
				names += ", "
			}
			names += c.Name
		}
		return nil, fmt.Errorf("%w (not a canned spec either; canned: %s)", err, names)
	}
	return s, nil
}
