package vec

import (
	"math"
	"math/rand"
	"testing"
)

// Randomized asm-vs-Go parity: for every non-"go" implementation, every
// dispatched kernel runs 2000 trials against the portable reference with
// random lengths (0..70), random slice offsets and magnitudes spanning
// 1e-4..1e4 (driving subnormal products and large cancellations), and the
// results must match bit for bit. This is the wide-net complement to the
// exhaustive-small-length property tests in vec_test.go.

const parityTrials = 2000

func forEachAsmImpl(t *testing.T, fn func(t *testing.T, im impl)) {
	for _, im := range available {
		if im.name == goImpl.name {
			continue
		}
		im := im
		t.Run(im.name, func(t *testing.T) { fn(t, im) })
	}
}

func scaledSlice(rng *rand.Rand, n int, scale float64) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64() * scale)
	}
	return s
}

func offsetCopy(rng *rand.Rand, src []float32) []float32 {
	off := rng.Intn(6)
	buf := make([]float32, off+len(src))
	out := buf[off:]
	copy(out, src)
	return out
}

func TestFusedSGDStep10Parity(t *testing.T) {
	forEachAsmImpl(t, func(t *testing.T, im impl) {
		rng := rand.New(rand.NewSource(8))
		for trial := 0; trial < parityTrials; trial++ {
			scale := math.Pow(10, float64(rng.Intn(9)-4))
			x1 := scaledSlice(rng, 10, scale)
			y1 := scaledSlice(rng, 10, scale)
			x2 := offsetCopy(rng, x1)
			y2 := offsetCopy(rng, y1)
			rating := float32(rng.NormFloat64() * 3)
			mean, bu, bi := float32(3.5), float32(rng.NormFloat64()), float32(rng.NormFloat64())
			lr, reg := float32(0.005), float32(0.1)
			gbu, gbi := goImpl.sgd10(x1, y1, rating, mean, bu, bi, lr, reg)
			abu, abi := im.sgd10(x2, y2, rating, mean, bu, bi, lr, reg)
			if math.Float32bits(gbu) != math.Float32bits(abu) || math.Float32bits(gbi) != math.Float32bits(abi) {
				t.Fatalf("trial %d: bias mismatch: go (%v,%v) %s (%v,%v)", trial, gbu, gbi, im.name, abu, abi)
			}
			requireBitsEq(t, "sgd10.x", 10, x2, x1)
			requireBitsEq(t, "sgd10.y", 10, y2, y1)
		}
	})
}

func TestAddParity(t *testing.T) {
	forEachAsmImpl(t, func(t *testing.T, im impl) {
		rng := rand.New(rand.NewSource(16))
		for trial := 0; trial < parityTrials; trial++ {
			n := rng.Intn(71)
			scale := math.Pow(10, float64(rng.Intn(9)-4))
			src := scaledSlice(rng, n, scale)
			d1 := scaledSlice(rng, n, scale)
			d2 := offsetCopy(rng, d1)
			goImpl.add(d1, src)
			im.add(d2, offsetCopy(rng, src))
			requireBitsEq(t, "add", n, d2, d1)
		}
	})
}

func TestAxpyParity(t *testing.T) {
	forEachAsmImpl(t, func(t *testing.T, im impl) {
		rng := rand.New(rand.NewSource(12))
		for trial := 0; trial < parityTrials; trial++ {
			n := rng.Intn(71)
			scale := math.Pow(10, float64(rng.Intn(9)-4))
			alpha := float32(rng.NormFloat64() * scale)
			x := scaledSlice(rng, n, scale)
			y1 := scaledSlice(rng, n, scale)
			y2 := offsetCopy(rng, y1)
			goImpl.axpy(alpha, x, y1)
			im.axpy(alpha, offsetCopy(rng, x), y2)
			requireBitsEq(t, "axpy", n, y2, y1)
		}
	})
}

func TestScaleParity(t *testing.T) {
	forEachAsmImpl(t, func(t *testing.T, im impl) {
		rng := rand.New(rand.NewSource(13))
		for trial := 0; trial < parityTrials; trial++ {
			n := rng.Intn(71)
			scale := math.Pow(10, float64(rng.Intn(9)-4))
			alpha := float32(rng.NormFloat64() * scale)
			x1 := scaledSlice(rng, n, scale)
			x2 := offsetCopy(rng, x1)
			goImpl.scale(alpha, x1)
			im.scale(alpha, x2)
			requireBitsEq(t, "scale", n, x2, x1)
		}
	})
}

func TestZeroParity(t *testing.T) {
	forEachAsmImpl(t, func(t *testing.T, im impl) {
		rng := rand.New(rand.NewSource(14))
		for trial := 0; trial < parityTrials; trial++ {
			n := rng.Intn(71)
			x := offsetCopy(rng, scaledSlice(rng, n, 1))
			im.zero(x)
			for i := range x {
				if math.Float32bits(x[i]) != 0 {
					t.Fatalf("trial %d: zero left %v (bits %#x) at %d", trial, x[i], math.Float32bits(x[i]), i)
				}
			}
		}
	})
}

func TestAdamParity(t *testing.T) {
	forEachAsmImpl(t, func(t *testing.T, im impl) {
		rng := rand.New(rand.NewSource(15))
		lr, eps := 1e-4, 1e-8
		b1, b2 := float32(0.9), float32(0.999)
		for trial := 0; trial < parityTrials; trial++ {
			n := rng.Intn(71)
			scale := math.Pow(10, float64(rng.Intn(9)-4))
			wd := 0.0
			if rng.Intn(2) == 1 {
				wd = 1e-5
			}
			w1, g := scaledSlice(rng, n, scale), scaledSlice(rng, n, scale)
			m1 := scaledSlice(rng, n, scale)
			v1 := make([]float32, n)
			for i := range v1 {
				v1[i] = float32(rng.Float64() * scale)
			}
			w2, m2, v2 := offsetCopy(rng, w1), offsetCopy(rng, m1), offsetCopy(rng, v1)
			step := 1 + rng.Intn(50)
			bc1 := 1 - math.Pow(float64(b1), float64(step))
			bc2 := 1 - math.Pow(float64(b2), float64(step))
			goImpl.adam(w1, g, m1, v1, lr, wd, b1, b2, bc1, bc2, eps)
			im.adam(w2, offsetCopy(rng, g), m2, v2, lr, wd, b1, b2, bc1, bc2, eps)
			requireBitsEq(t, "adam.w", n, w2, w1)
			requireBitsEq(t, "adam.m", n, m2, m1)
			requireBitsEq(t, "adam.v", n, v2, v1)
		}
	})
}

// TestFusedSGDStepMatchesComposition pins FusedSGDStep (all K, every
// implementation) against the unfused Dot + scalar-bias + SGDStep
// composition it replaces.
func TestFusedSGDStepMatchesComposition(t *testing.T) {
	forEachImpl(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(9))
		for _, n := range []int{0, 1, 2, 3, 5, 10, 16, 33, 50} {
			x1, y1 := randSlice(rng, n), randSlice(rng, n)
			x2 := append([]float32(nil), x1...)
			y2 := append([]float32(nil), y1...)
			rating := float32(rng.NormFloat64() * 3)
			mean, bu, bi := float32(3.5), float32(rng.NormFloat64()), float32(rng.NormFloat64())
			lr, reg := float32(0.005), float32(0.1)

			pred := mean + bu + bi + Dot(x1, y1)
			e := rating - pred
			wbu := bu + float32(lr*(e-float32(reg*bu)))
			wbi := bi + float32(lr*(e-float32(reg*bi)))
			SGDStep(x1, y1, e, lr, reg)

			gbu, gbi := FusedSGDStep(x2, y2, rating, mean, bu, bi, lr, reg)
			if math.Float32bits(gbu) != math.Float32bits(wbu) || math.Float32bits(gbi) != math.Float32bits(wbi) {
				t.Fatalf("n=%d: bias mismatch: fused (%v,%v) composed (%v,%v)", n, gbu, gbi, wbu, wbi)
			}
			requireBitsEq(t, "fused.x", n, x2, x1)
			requireBitsEq(t, "fused.y", n, y2, y1)
		}
	})
}

func BenchmarkFusedSGDStep10(b *testing.B) {
	x, y := benchSlices(10)
	for i := 0; i < b.N; i++ {
		FusedSGDStep(x, y, 4, 3.5, 0.1, 0.1, 0.005, 0.1)
	}
}

// TestScoreRowsParity holds every asm tier's ScoreRows to the reference
// loop: query lengths 1..64 (a quarter of the trials at the paper's K=10),
// strides len(x)+1..len(x)+4, 0..70 rows (every tail past an 8-row
// block), random offsets and magnitudes, with NaN, ±Inf and -0 planted in
// the query, the biases, the factors and the base. A NaN result matches
// any NaN: which operand's payload survives is the compiler's choice of
// operand order, not part of the contract.
func TestScoreRowsParity(t *testing.T) {
	specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1))}
	forEachAsmImpl(t, func(t *testing.T, im impl) {
		rng := rand.New(rand.NewSource(17))
		for trial := 0; trial < parityTrials; trial++ {
			k := 1 + rng.Intn(64)
			if trial%4 == 0 {
				k = 10
			}
			stride := k + 1 + rng.Intn(4)
			n := rng.Intn(71)
			scale := math.Pow(10, float64(rng.Intn(9)-4))
			x := offsetCopy(rng, scaledSlice(rng, k, scale))
			rec := offsetCopy(rng, scaledSlice(rng, n*stride, scale))
			base := float32(rng.NormFloat64() * scale)
			switch rng.Intn(4) {
			case 0: // one special value each in the query, a bias and a factor
				x[rng.Intn(k)] = specials[rng.Intn(len(specials))]
				if n > 0 {
					s := rng.Intn(n) * stride
					rec[s] = specials[rng.Intn(len(specials))]
					rec[s+1+rng.Intn(k)] = specials[rng.Intn(len(specials))]
				}
			case 1: // signed zeros: a -0 query (so ±0 products), -0 biases and base
				negZero := specials[3]
				for d := range x {
					x[d] = negZero
				}
				for s := 0; s < n; s++ {
					rec[s*stride] = negZero
				}
				base = negZero
			}
			want := make([]float32, n)
			goImpl.scoreRows(want, x, rec, stride, base)
			buf := make([]float32, n+guard)
			for i := range buf {
				buf[i] = sentinel
			}
			got := offsetCopy(rng, buf)
			im.scoreRows(got[:n], x, rec, stride, base)
			for s := range want {
				if !bitsEq(got[s], want[s]) && !(got[s] != got[s] && want[s] != want[s]) {
					t.Fatalf("trial %d (k=%d stride=%d n=%d): row %d: got %v (%#x) want %v (%#x)",
						trial, k, stride, n, s, got[s], math.Float32bits(got[s]), want[s], math.Float32bits(want[s]))
				}
			}
			for i := n; i < len(got); i++ {
				if got[i] != sentinel {
					t.Fatalf("trial %d: write past row %d at %d", trial, n, i)
				}
			}
		}
	})
}
