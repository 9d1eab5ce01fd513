// Package vec is the shared float32 kernel layer under every model family:
// the SGD inner loops of the MF recommender, the matrix and optimizer
// arithmetic of the DNN, and the weighted-average merges of the REX
// protocol all bottom out in these routines. Element-wise kernels dispatch
// at init to the widest vector unit the CPU offers (AVX2 or SSE2 on amd64,
// NEON on arm64, portable Go elsewhere); the REX_VEC env knob
// (auto|avx2|sse2|neon|go) pins any path for tests and benchmarks — see
// dispatch.go and the README "Kernel dispatch" section.
//
// Bit-identity contract: every kernel performs exactly the floating-point
// operations of its naive reference loop. A reduction is never split
// within a row: Dot uses a single sequentially-updated accumulator, and
// vectorizing one reduction across lanes would reassociate its sum, so Dot
// stays scalar on every architecture. Independent rows may run in lanes:
// ScoreRows gives each of 8 rows its own AVX2 lane, and each lane runs
// Dot's serial chain. Element-wise kernels touch each index independently,
// so SIMD lanes compute the identical IEEE-754 single operations the
// scalar loop would (no FMA contraction, default rounding) and swapping
// implementations never changes results by a single bit. Optimizations that reorder float
// arithmetic (multiple accumulators, FMA) must not be introduced here
// without owning a results change across the repo's golden and
// determinism suites.
//
// The float32(...) conversions wrapping every product that feeds an
// addition are load-bearing, not noise: the Go spec allows the compiler
// to contract a*b+c into a fused multiply-add (and gc does exactly that
// on arm64, emitting FMADDS), which skips the intermediate rounding and
// would make the "portable reference" compute different bits on arm64
// than on amd64 — silently breaking the cross-architecture golden
// trajectories. An explicit conversion is the spec-defined rounding
// barrier that forbids contraction. Do not "simplify" them away; the
// arm64 CI job's golden and property tests fail if one goes missing.
//
// Length contract: the first slice argument defines the operation length;
// remaining slices must be at least that long (enforced by slice bounds)
// and any excess is ignored.
package vec

import "math"

// Dot returns the inner product Σ a[i]*b[i], accumulated left to right.
// Serial by contract (one reduction is never split); identical on every
// dispatch path.
func Dot(a, b []float32) float32 {
	n := len(a)
	b = b[:n]
	var s float32
	i := 0
	for ; i <= n-4; i += 4 {
		s += float32(a[i] * b[i])
		s += float32(a[i+1] * b[i+1])
		s += float32(a[i+2] * b[i+2])
		s += float32(a[i+3] * b[i+3])
	}
	for ; i < n; i++ {
		s += float32(a[i] * b[i])
	}
	return s
}

// ScoreRows scores len(out) packed records against one query vector:
//
//	out[s] = (base + rec[s*stride]) + Dot(x, rec[s*stride+1 : s*stride+1+len(x)])
//
// Each record is a bias followed by len(x) factors, records stride floats
// apart; this is an MF model scoring every item it holds for one user.
// Each row's sum is Dot's own serial chain: a tier may score independent
// rows in parallel lanes, never split one row's reduction.
func ScoreRows(out, x, rec []float32, stride int, base float32) {
	active.scoreRows(out, x, rec, stride, base)
}

func scoreRowsGo(out, x, rec []float32, stride int, base float32) {
	k := len(x)
	for s := range out {
		r := rec[s*stride : s*stride+1+k]
		out[s] = (base + r[0]) + Dot(x, r[1:])
	}
}

// Scale multiplies x by alpha in place.
func Scale(alpha float32, x []float32) { active.scale(alpha, x) }

func scaleGo(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// Zero clears x.
func Zero(x []float32) { active.zero(x) }

// zeroGo compiles to memclr via range-over-clear.
func zeroGo(x []float32) {
	for i := range x {
		x[i] = 0
	}
}

// Add accumulates src into dst: dst[i] += src[i].
func Add(dst, src []float32) { active.add(dst, src) }

func addGo(dst, src []float32) {
	n := len(dst)
	src = src[:n]
	i := 0
	for ; i <= n-4; i += 4 {
		dst[i] += src[i]
		dst[i+1] += src[i+1]
		dst[i+2] += src[i+2]
		dst[i+3] += src[i+3]
	}
	for ; i < n; i++ {
		dst[i] += src[i]
	}
}

// AddScaled accumulates a scaled source into dst: dst[i] += alpha*src[i].
// This is the weighted-merge kernel (§III-C2 averaging walks rows with it).
func AddScaled(dst, src []float32, alpha float32) { active.axpy(alpha, src, dst) }

// Axpy is the BLAS spelling of AddScaled: y[i] += alpha*x[i]. The matrix
// kernels call it by this name; the merge path calls AddScaled. Both names
// denote the same operation (and the same dispatched kernel).
func Axpy(alpha float32, x, y []float32) { active.axpy(alpha, x, y) }

// axpyGo: y[i] += alpha*x[i] for i < len(y).
func axpyGo(alpha float32, x, y []float32) {
	n := len(y)
	x = x[:n]
	i := 0
	for ; i <= n-4; i += 4 {
		y[i] += float32(alpha * x[i])
		y[i+1] += float32(alpha * x[i+1])
		y[i+2] += float32(alpha * x[i+2])
		y[i+3] += float32(alpha * x[i+3])
	}
	for ; i < n; i++ {
		y[i] += float32(alpha * x[i])
	}
}

// SGDStep applies one fused biased-MF SGD update to an embedding pair:
// for each dimension d, with e the prediction error, lr the learning rate
// and reg the L2 coefficient,
//
//	x[d] += lr*(e*y_old[d] - reg*x_old[d])
//	y[d] += lr*(e*x_old[d] - reg*y_old[d])
//
// where the y update deliberately reads the pre-update x (both gradients
// are taken at the same point), matching the paper's §II-A-b loss exactly.
// No production path calls it: it is the unfused reference FusedSGDStep
// is pinned against (TestFusedSGDStepMatchesComposition).
func SGDStep(x, y []float32, e, lr, reg float32) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i <= n-2; i += 2 {
		x0, y0 := x[i], y[i]
		x1, y1 := x[i+1], y[i+1]
		x[i] += float32(lr * (float32(e*y0) - float32(reg*x0)))
		y[i] += float32(lr * (float32(e*x0) - float32(reg*y0)))
		x[i+1] += float32(lr * (float32(e*y1) - float32(reg*x1)))
		y[i+1] += float32(lr * (float32(e*x1) - float32(reg*y1)))
	}
	for ; i < n; i++ {
		xd, yd := x[i], y[i]
		x[i] += float32(lr * (float32(e*yd) - float32(reg*xd)))
		y[i] += float32(lr * (float32(e*xd) - float32(reg*yd)))
	}
}

// FusedSGDStep runs one complete biased-MF SGD step on an embedding pair
// in a single call: the prediction dot product, the error against the
// observed rating (with the global-mean prior and both bias terms), and
// the SGDStep update, returning the new user and item biases. It performs
// exactly the arithmetic of Dot + the scalar bias updates + SGDStep, in
// the same order — fusing only removes call and reload overhead from the
// innermost training loop, not a single float operation.
func FusedSGDStep(x, y []float32, rating, mean, bu, bi, lr, reg float32) (float32, float32) {
	if len(x) == 10 {
		// The paper's MF rank (§IV-A3a): a fully-unrolled straight-line
		// body, dispatched to the widest assembly the CPU offers. Every
		// implementation keeps the dot reduction a serial scalar chain and
		// the update element-wise: identical float ops in identical order.
		return active.sgd10(x, y[:10], rating, mean, bu, bi, lr, reg)
	}
	n := len(x)
	y = y[:n]
	var dot float32
	i := 0
	for ; i <= n-4; i += 4 {
		dot += float32(x[i] * y[i])
		dot += float32(x[i+1] * y[i+1])
		dot += float32(x[i+2] * y[i+2])
		dot += float32(x[i+3] * y[i+3])
	}
	for ; i < n; i++ {
		dot += float32(x[i] * y[i])
	}
	e := rating - (mean + bu + bi + dot)
	for i = 0; i <= n-2; i += 2 {
		x0, y0 := x[i], y[i]
		x1, y1 := x[i+1], y[i+1]
		x[i] += float32(lr * (float32(e*y0) - float32(reg*x0)))
		y[i] += float32(lr * (float32(e*x0) - float32(reg*y0)))
		x[i+1] += float32(lr * (float32(e*y1) - float32(reg*x1)))
		y[i+1] += float32(lr * (float32(e*x1) - float32(reg*y1)))
	}
	for ; i < n; i++ {
		xd, yd := x[i], y[i]
		x[i] += float32(lr * (float32(e*yd) - float32(reg*xd)))
		y[i] += float32(lr * (float32(e*xd) - float32(reg*yd)))
	}
	return bu + float32(lr*(e-float32(reg*bu))), bi + float32(lr*(e-float32(reg*bi)))
}

func fusedSGDStep10(x, y []float32, rating, mean, bu, bi, lr, reg float32) (float32, float32) {
	_, _ = x[9], y[9]
	// dot starts from +0 and accumulates, like the generic loop: folding
	// the first term into the initializer would flip the sign of a -0 sum.
	var dot float32
	dot += float32(x[0] * y[0])
	dot += float32(x[1] * y[1])
	dot += float32(x[2] * y[2])
	dot += float32(x[3] * y[3])
	dot += float32(x[4] * y[4])
	dot += float32(x[5] * y[5])
	dot += float32(x[6] * y[6])
	dot += float32(x[7] * y[7])
	dot += float32(x[8] * y[8])
	dot += float32(x[9] * y[9])
	e := rating - (mean + bu + bi + dot)
	x0, y0 := x[0], y[0]
	x[0] += float32(lr * (float32(e*y0) - float32(reg*x0)))
	y[0] += float32(lr * (float32(e*x0) - float32(reg*y0)))
	x1, y1 := x[1], y[1]
	x[1] += float32(lr * (float32(e*y1) - float32(reg*x1)))
	y[1] += float32(lr * (float32(e*x1) - float32(reg*y1)))
	x2, y2 := x[2], y[2]
	x[2] += float32(lr * (float32(e*y2) - float32(reg*x2)))
	y[2] += float32(lr * (float32(e*x2) - float32(reg*y2)))
	x3, y3 := x[3], y[3]
	x[3] += float32(lr * (float32(e*y3) - float32(reg*x3)))
	y[3] += float32(lr * (float32(e*x3) - float32(reg*y3)))
	x4, y4 := x[4], y[4]
	x[4] += float32(lr * (float32(e*y4) - float32(reg*x4)))
	y[4] += float32(lr * (float32(e*x4) - float32(reg*y4)))
	x5, y5 := x[5], y[5]
	x[5] += float32(lr * (float32(e*y5) - float32(reg*x5)))
	y[5] += float32(lr * (float32(e*x5) - float32(reg*y5)))
	x6, y6 := x[6], y[6]
	x[6] += float32(lr * (float32(e*y6) - float32(reg*x6)))
	y[6] += float32(lr * (float32(e*x6) - float32(reg*y6)))
	x7, y7 := x[7], y[7]
	x[7] += float32(lr * (float32(e*y7) - float32(reg*x7)))
	y[7] += float32(lr * (float32(e*x7) - float32(reg*y7)))
	x8, y8 := x[8], y[8]
	x[8] += float32(lr * (float32(e*y8) - float32(reg*x8)))
	y[8] += float32(lr * (float32(e*x8) - float32(reg*y8)))
	x9, y9 := x[9], y[9]
	x[9] += float32(lr * (float32(e*y9) - float32(reg*x9)))
	y[9] += float32(lr * (float32(e*x9) - float32(reg*y9)))
	return bu + float32(lr*(e-float32(reg*bu))), bi + float32(lr*(e-float32(reg*bi)))
}

// AdamStep applies one fused Adam update with decoupled (AdamW-style)
// weight decay to a parameter tensor: m and v are the first/second moment
// buffers, bc1/bc2 the bias-correction denominators 1-β1ᵗ and 1-β2ᵗ.
// Arithmetic mixes float32 state with float64 step math exactly as the
// reference optimizer loop did, so trajectories are bit-identical. All
// operations are element-wise and IEEE correctly rounded (÷, √ included),
// which is what lets the AVX2/NEON paths vectorize it without breaking
// the contract.
func AdamStep(w, g, m, v []float32, lr, wd float64, b1, b2 float32, bc1, bc2, eps float64) {
	active.adam(w, g, m, v, lr, wd, b1, b2, bc1, bc2, eps)
}

func adamStepGo(w, g, m, v []float32, lr, wd float64, b1, b2 float32, bc1, bc2, eps float64) {
	n := len(w)
	g, m, v = g[:n], m[:n], v[:n]
	for i := 0; i < n; i++ {
		gi := g[i]
		if wd != 0 {
			w[i] -= float32(lr * wd * float64(w[i]))
		}
		m[i] = float32(b1*m[i]) + float32((1-b1)*gi)
		v[i] = float32(b2*v[i]) + float32((1-b2)*gi*gi)
		mhat := float64(m[i]) / bc1
		vhat := float64(v[i]) / bc2
		w[i] -= float32(lr * mhat / (math.Sqrt(vhat) + eps))
	}
}

// adamTail finishes AdamStep elements [from:] with the scalar loop, after
// an assembly kernel consumed the whole vector blocks. Weight decay has
// already been applied by the caller (the two-pass split is element-wise,
// so per-element results are bit-identical to the fused reference loop).
func adamTail(w, g, m, v []float32, from int, lr float64, b1, b2 float32, bc1, bc2, eps float64) {
	for i := from; i < len(w); i++ {
		gi := g[i]
		m[i] = float32(b1*m[i]) + float32((1-b1)*gi)
		v[i] = float32(b2*v[i]) + float32((1-b2)*gi*gi)
		mhat := float64(m[i]) / bc1
		vhat := float64(v[i]) / bc2
		w[i] -= float32(lr * mhat / (math.Sqrt(vhat) + eps))
	}
}

// adamDecay applies the decoupled weight-decay pass w[i] -= f32(lr*wd*w[i])
// ahead of an assembly Adam kernel. In the reference loop the decay and the
// step interleave per element, but every element is independent, so running
// the decay as its own pass leaves each w[i] bit-identical.
func adamDecay(w []float32, lrwd float64) {
	for i := range w {
		w[i] -= float32(lrwd * float64(w[i]))
	}
}
