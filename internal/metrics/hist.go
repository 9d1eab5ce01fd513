package metrics

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Hist is a small streaming latency histogram: durations are counted into
// log-spaced buckets (8 sub-buckets per power of two, ~6% relative error at
// the bucket midpoint), so recording is one atomic increment — safe for
// concurrent use on serving hot paths — and quantiles come from a bucket
// walk. The bucket layout is fixed and global, which makes snapshots from
// different histograms (different nodes of a cluster) mergeable by adding
// counts bucket for bucket; merged quantiles are therefore exact at the
// same resolution as local ones, unlike averaging per-node percentiles.
//
// The zero value is ready to use.
type Hist struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

const (
	histSubBits = 3 // sub-buckets per octave = 2^histSubBits
	histSub     = 1 << histSubBits
	// 64-bit nanosecond values need (64-histSubBits)*histSub + histSub
	// buckets; 512 covers every int64 with headroom.
	histBuckets = 512
)

// histIndex maps a nanosecond value to its bucket. Values 0..7 get exact
// buckets; larger values index by (octave, top 3 bits below the MSB).
func histIndex(ns int64) int {
	if ns < histSub {
		if ns < 0 {
			return 0
		}
		return int(ns)
	}
	l := bits.Len64(uint64(ns))
	return (l-histSubBits)<<histSubBits | int(ns>>(l-1-histSubBits))&(histSub-1)
}

// histLow returns the smallest nanosecond value mapping to bucket idx.
func histLow(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	e := idx >> histSubBits
	s := idx & (histSub - 1)
	return int64(histSub+s) << (e - 1)
}

// histMid returns the representative (midpoint) value of bucket idx, the
// value quantile queries report for samples landing in it.
func histMid(idx int) int64 {
	lo := histLow(idx)
	if idx < histSub {
		return lo // exact single-value buckets
	}
	var hi int64
	if idx+1 < histBuckets {
		hi = histLow(idx + 1)
	} else {
		hi = lo + lo/histSub
	}
	return lo + (hi-lo-1)/2
}

// Observe records one duration. Negative durations count as zero.
func (h *Hist) Observe(d time.Duration) { h.ObserveNanos(int64(d)) }

// ObserveNanos records one duration given in nanoseconds.
func (h *Hist) ObserveNanos(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(ns)].Add(1)
	h.sum.Add(ns)
}

// Snapshot returns a point-in-time copy suitable for quantile queries,
// serialization and merging. Concurrent Observe calls may or may not be
// included; the snapshot itself is internally consistent enough for
// reporting (bucket sum is used as the count).
func (h *Hist) Snapshot() *HistSnapshot {
	s := &HistSnapshot{SumNs: h.sum.Load()}
	for i := range h.counts {
		if c := h.counts[i].Load(); c > 0 {
			s.Buckets = append(s.Buckets, HistBucket{Index: i, Count: c})
			s.Count += c
		}
	}
	return s
}

// HistBucket is one non-empty bucket of a snapshot.
type HistBucket struct {
	Index int    `json:"i"`
	Count uint64 `json:"c"`
}

// HistSnapshot is the serializable, mergeable form of a Hist. Buckets are
// sparse (non-empty only) and sorted by index.
type HistSnapshot struct {
	Count   uint64       `json:"count"`
	SumNs   int64        `json:"sum_ns"`
	Buckets []HistBucket `json:"buckets,omitempty"`
}

// Add folds other into s bucket for bucket, so quantiles over the union
// keep full resolution. Nil other is a no-op.
func (s *HistSnapshot) Add(other *HistSnapshot) {
	if other == nil {
		return
	}
	s.Count += other.Count
	s.SumNs += other.SumNs
	merged := make([]HistBucket, 0, len(s.Buckets)+len(other.Buckets))
	i, j := 0, 0
	for i < len(s.Buckets) || j < len(other.Buckets) {
		switch {
		case j >= len(other.Buckets) || (i < len(s.Buckets) && s.Buckets[i].Index < other.Buckets[j].Index):
			merged = append(merged, s.Buckets[i])
			i++
		case i >= len(s.Buckets) || other.Buckets[j].Index < s.Buckets[i].Index:
			merged = append(merged, other.Buckets[j])
			j++
		default:
			merged = append(merged, HistBucket{Index: s.Buckets[i].Index, Count: s.Buckets[i].Count + other.Buckets[j].Count})
			i++
			j++
		}
	}
	s.Buckets = merged
}

// Quantile returns the q-quantile (0 <= q <= 1) as a duration: the
// midpoint of the bucket holding the ceil(q*count)-th smallest sample.
// An empty snapshot returns 0.
func (s *HistSnapshot) Quantile(q float64) time.Duration {
	if s == nil || s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(s.Count))
	if rank < 1 {
		rank = 1
	}
	if rank > s.Count {
		rank = s.Count
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			return time.Duration(histMid(b.Index))
		}
	}
	return time.Duration(histMid(s.Buckets[len(s.Buckets)-1].Index))
}

// Mean returns the mean observed duration (0 when empty).
func (s *HistSnapshot) Mean() time.Duration {
	if s == nil || s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNs / int64(s.Count))
}

// StageSet is a named registry of histograms — one per pipeline stage
// (train, merge, seal, wire, ...). Safe for concurrent use; histograms are
// created on first observation.
type StageSet struct {
	mu sync.Mutex
	m  map[string]*Hist
}

// NewStageSet returns an empty registry.
func NewStageSet() *StageSet { return &StageSet{m: make(map[string]*Hist)} }

// Observe records d into the named stage histogram.
func (s *StageSet) Observe(name string, d time.Duration) {
	s.hist(name).Observe(d)
}

func (s *StageSet) hist(name string) *Hist {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.m[name]
	if !ok {
		h = &Hist{}
		s.m[name] = h
	}
	return h
}

// Snapshot returns a snapshot per stage, keyed by name.
func (s *StageSet) Snapshot() map[string]*HistSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]*HistSnapshot, len(s.m))
	for name, h := range s.m {
		out[name] = h.Snapshot()
	}
	return out
}
