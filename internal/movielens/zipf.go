package movielens

import (
	"math"
	"math/rand"
)

// zipf draws exactly the values of rand.Zipf with v = 1, from exactly the
// same rng stream: every iteration reads one Float64, and the value and
// the accept decision are math/rand's. Most of its cost is gone, though.
//
// rand.Zipf is Hörmann–Derflinger rejection-inversion: it maps r to
// ur = hxm + r·hx0minusHxm, takes x = hinv(ur) and k = ⌊x+½⌋, and accepts
// when k − x ≤ s (the squeeze, ~98 % of draws at s = 1.07), else after
// one more Exp/Log test. h is increasing, so "k = j and the squeeze holds"
// is exactly ur ∈ [h(j−s), h(j+½)). zipf tabulates those intervals once,
// shrunk by the relative guard below, finds ur's interval with a bucket
// table and a short forward scan, and returns j with no Exp or Log. Any ur
// outside every shrunk interval — the squeeze's misses and the guard
// bands — runs math/rand's iteration body, copied expression for
// expression so the compiler makes the same rounding and fusion choices.
//
// Generate builds the tables per call (~80 ns per value); nothing
// outlives the call.
type zipf struct {
	r *rand.Rand
	// math/rand's fields, computed by its expressions.
	imax, v, q, s              float64
	oneminusQ, oneminusQinv    float64
	hxm, hx0minusHxm           float64
	cells                      []zipfCell // one per value, then a sentinel
	bucket                     []uint32   // bucket b: least j with bucketOf(cells[j].hi) ≥ b
	bucketBase, bucketsPerUnit float64
	lastBucket                 int
}

// zipfCell is value j's fast interval [lo, hi) of ur. The sentinel cell
// has lo = hi = +Inf: the scan stops there and the draw falls back.
type zipfCell struct{ lo, hi float64 }

// zipfGuard shrinks each fast interval, relative to its end points. h and
// hinv are Exp∘Log compositions: each result is off by a few ulps times
// the condition number |1/(1−q)| (100 at s = 1.01), plus ulps of
// ln(v+x) ≤ 23 — under 1e-13 relative in ur and in v+x. Moving ur by a
// relative g moves v+x by g/(q−1) relative, so a guard of 1e-9 keeps
// every tabulated value at least four orders of magnitude inside the
// region where math/rand's own rounding could pick another k or miss the
// squeeze.
const zipfGuard = 1e-9

// zipfMinNormal bounds |h| below: where h(j+½) is subnormal its relative
// error is unbounded, so that value gets no fast interval.
const zipfMinNormal = 0x1p-1000

// bucketsPerValue sizes the bucket table: with 4 buckets per value a
// draw's scan passes a quarter of a cell boundary on average.
const bucketsPerValue = 4

// newZipf is rand.NewZipf(r, s, 1, imax) plus the tables. s must be a
// finite s > 1 (Spec.Validate).
func newZipf(r *rand.Rand, s float64, imax uint64) *zipf {
	z := new(zipf)
	z.r = r
	z.imax = float64(imax)
	z.v = 1
	z.q = s
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))

	n := int(imax) + 1
	z.cells = make([]zipfCell, n+1)
	squeeze := min(z.s, 0.5) // mathematically s ≤ ½: k − x ≤ s implies k = ⌊x+½⌋
	for j := range n {
		lo := z.h(float64(j)-squeeze) * (1 - zipfGuard)
		hi := z.h(float64(j)+0.5) * (1 + zipfGuard)
		if !(-hi >= zipfMinNormal) {
			lo = math.Inf(1)
		}
		z.cells[j] = zipfCell{lo, hi}
	}
	z.cells[n] = zipfCell{math.Inf(1), math.Inf(1)}

	// ur spans (hxm + hx0minusHxm, hxm]; hx0minusHxm < 0.
	nb := bucketsPerValue * n
	z.bucketBase = z.hxm + z.hx0minusHxm
	z.bucketsPerUnit = float64(nb) / -z.hx0minusHxm
	z.lastBucket = nb - 1
	z.bucket = make([]uint32, nb)
	filled := 0 // buckets [0, filled) are assigned
	for j := range n {
		for b := z.bucketOf(z.cells[j].hi); filled <= b; filled++ {
			z.bucket[filled] = uint32(j)
		}
	}
	for ; filled < nb; filled++ {
		z.bucket[filled] = uint32(n)
	}
	return z
}

// bucketOf maps ur to its bucket. It is monotone in u, which is all the
// scan relies on: if ur < cells[J].hi then bucketOf(cells[J].hi) ≥
// bucketOf(ur), so the scan from bucket[bucketOf(ur)] cannot start past J.
// Every ur is ≥ bucketBase; a cell edge below it (guarded edges are, for
// s within ~1e-9 of 1) gets a negative bucket, which the build skips.
func (z *zipf) bucketOf(u float64) int {
	t := (u - z.bucketBase) * z.bucketsPerUnit
	if t >= float64(z.lastBucket) {
		return z.lastBucket
	}
	return int(t)
}

// h and hinv are rand.Zipf's, verbatim.
func (z *zipf) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipf) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// Uint64 returns the value rand.Zipf.Uint64 would, consuming the same
// Float64 draws.
func (z *zipf) Uint64() uint64 {
	k := 0.0

	for {
		r := z.r.Float64() // r on [0,1]
		ur := z.hxm + r*z.hx0minusHxm
		j := z.bucket[z.bucketOf(ur)]
		for ur >= z.cells[j].hi {
			j++
		}
		if ur >= z.cells[j].lo {
			return uint64(j)
		}
		x := z.hinv(ur)
		k = math.Floor(x + 0.5)
		if k-x <= z.s {
			break
		}
		if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
			break
		}
	}
	return uint64(k)
}
