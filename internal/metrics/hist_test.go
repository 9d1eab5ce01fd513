package metrics

import (
	"encoding/json"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// TestHistIndexMonotone pins the bucket layout: indices are monotone in the
// value, every bucket's low bound maps back to itself, and the relative
// width of a bucket stays under 1/8 (the sub-bucket resolution).
func TestHistIndexMonotone(t *testing.T) {
	prev := -1
	for _, ns := range []int64{0, 1, 2, 7, 8, 9, 15, 16, 17, 100, 1023, 1024, 1 << 20, 1<<20 + 1, 1 << 40, 1<<62 + 12345} {
		idx := histIndex(ns)
		if idx < prev {
			t.Fatalf("histIndex(%d) = %d < previous %d", ns, idx, prev)
		}
		prev = idx
		if lo := histLow(idx); histIndex(lo) != idx {
			t.Fatalf("histLow(%d) = %d maps to bucket %d", idx, lo, histIndex(lo))
		}
		if mid := histMid(idx); histIndex(mid) != idx {
			t.Fatalf("histMid(%d) = %d escapes its bucket (-> %d)", idx, mid, histIndex(mid))
		}
	}
	if histIndex(-5) != 0 {
		t.Fatal("negative values must clamp to bucket 0")
	}
}

// TestHistQuantileAccuracy draws a heavy-tailed sample and checks the
// histogram quantiles against the exact sorted-sample quantiles within the
// bucket resolution (12.5% relative width -> allow 13%).
func TestHistQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h Hist
	var vals []int64
	for i := 0; i < 20000; i++ {
		// Log-uniform over [1µs, 1s] with occasional 10x outliers.
		v := int64(1000 * (1 + rng.ExpFloat64()*5000))
		if rng.Intn(100) == 0 {
			v *= 10
		}
		vals = append(vals, v)
		h.ObserveNanos(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	s := h.Snapshot()
	if s.Count != uint64(len(vals)) {
		t.Fatalf("snapshot count %d, want %d", s.Count, len(vals))
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1.0} {
		rank := int(q*float64(len(vals))) - 1
		if rank < 0 {
			rank = 0
		}
		exact := float64(vals[rank])
		got := float64(s.Quantile(q))
		if got < exact*(1-0.13) || got > exact*(1+0.13) {
			t.Fatalf("q%.2f: hist %v, exact %v (>13%% off)", q, got, exact)
		}
	}
	if s.Quantile(0.5) > s.Quantile(0.95) || s.Quantile(0.95) > s.Quantile(0.99) {
		t.Fatal("quantiles not monotone")
	}
}

// TestHistSnapshotMerge pins that merging two snapshots equals observing
// the union into one histogram — the property the loadgen relies on when
// folding per-node /metrics scrapes.
func TestHistSnapshotMerge(t *testing.T) {
	var a, b, union Hist
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		v := int64(rng.Intn(1_000_000) + 1)
		if i%2 == 0 {
			a.ObserveNanos(v)
		} else {
			b.ObserveNanos(v)
		}
		union.ObserveNanos(v)
	}
	sa := a.Snapshot()
	sa.Add(b.Snapshot())
	su := union.Snapshot()
	if sa.Count != su.Count || sa.SumNs != su.SumNs {
		t.Fatalf("merged count/sum %d/%d, want %d/%d", sa.Count, sa.SumNs, su.Count, su.SumNs)
	}
	if len(sa.Buckets) != len(su.Buckets) {
		t.Fatalf("merged %d buckets, union has %d", len(sa.Buckets), len(su.Buckets))
	}
	for i := range sa.Buckets {
		if sa.Buckets[i] != su.Buckets[i] {
			t.Fatalf("bucket %d: merged %+v union %+v", i, sa.Buckets[i], su.Buckets[i])
		}
	}
	for _, q := range []float64{0.5, 0.99} {
		if sa.Quantile(q) != su.Quantile(q) {
			t.Fatalf("q%.2f differs after merge", q)
		}
	}
	// Merging nil is a no-op.
	before := sa.Count
	sa.Add(nil)
	if sa.Count != before {
		t.Fatal("Add(nil) changed the snapshot")
	}
}

// TestHistEmptyAndEdgeQuantiles: empty histograms report zeros, q is
// clamped into [0,1], and single-sample histograms report that sample's
// bucket for every quantile.
func TestHistEmptyAndEdgeQuantiles(t *testing.T) {
	var h Hist
	s := h.Snapshot()
	if s.Quantile(0.5) != 0 || s.Mean() != 0 {
		t.Fatal("empty snapshot must report 0")
	}
	h.Observe(5 * time.Millisecond)
	s = h.Snapshot()
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		got := s.Quantile(q)
		if got < 4*time.Millisecond || got > 6*time.Millisecond {
			t.Fatalf("q%v of single 5ms sample = %v", q, got)
		}
	}
}

// TestHistConcurrentObserve hammers one histogram from many goroutines;
// under -race this verifies the lock-free recording path, and the final
// count must equal the number of observations.
func TestHistConcurrentObserve(t *testing.T) {
	var h Hist
	const workers, per = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.ObserveNanos(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Count; got != workers*per {
		t.Fatalf("count %d, want %d", got, workers*per)
	}
}

// TestHistSnapshotJSONRoundTrip: the snapshot survives the JSON encoding
// /metrics uses, with quantiles intact.
func TestHistSnapshotJSONRoundTrip(t *testing.T) {
	var h Hist
	for i := 1; i <= 1000; i++ {
		h.ObserveNanos(int64(i) * 1000)
	}
	s := h.Snapshot()
	b, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back HistSnapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != s.Count || back.Quantile(0.95) != s.Quantile(0.95) {
		t.Fatalf("round trip changed the snapshot: %v vs %v", back, s)
	}
}

// TestStageSet: observations land in the right stage, and snapshots are
// independent copies.
func TestStageSet(t *testing.T) {
	ss := NewStageSet()
	ss.Observe("train", 10*time.Millisecond)
	ss.Observe("merge", time.Millisecond)
	ss.Observe("train", 12*time.Millisecond)
	snap := ss.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("stages %v, want merge and train", snap)
	}
	if snap["train"].Count != 2 || snap["merge"].Count != 1 {
		t.Fatalf("counts %d/%d", snap["train"].Count, snap["merge"].Count)
	}
	ss.Observe("train", time.Millisecond)
	if snap["train"].Count != 2 {
		t.Fatal("snapshot mutated by later observation")
	}
}
