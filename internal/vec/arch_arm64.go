//go:build arm64

package vec

// NEON (ASIMD) is architectural on arm64 — no feature detection needed.
// The kernels live in kernels_arm64.s; Go's arm64 assembler has no
// vector floating-point add/mul/sub mnemonics (only fused VFMLA/VFMLS,
// which the bit-identity contract forbids), so the float ops are emitted
// as WORD-encoded A64 instructions, one comment per WORD naming the
// instruction it encodes.
func archImpls() []impl {
	return []impl{{
		name:  "neon",
		add:   addNEONFull,
		axpy:  axpyNEONFull,
		scale: scaleNEONFull,
		zero:  zeroNEONFull,
		sgd10: sgd10NEON,
		adam:  adamNEONFull,
		// NEON has no gather: rows score through the reference loop.
		scoreRows: scoreRowsGo,
	}}
}

// The assembly kernels consume only whole 4-element blocks; the wrappers
// trim and finish tails with the exact reference loop (element-wise, so
// the split cannot change a single bit).

//go:noescape
func addNEON(dst, src []float32)

//go:noescape
func axpyNEON(alpha float32, x, y []float32)

//go:noescape
func scaleNEON(alpha float32, x []float32)

//go:noescape
func zeroNEON(x []float32)

//go:noescape
func sgd10NEON(x, y []float32, rating, mean, bu, bi, lr, reg float32) (float32, float32)

//go:noescape
func adamNEON(w, g, m, v []float32, lr float64, b1, onemb1, b2, onemb2 float32, bc1, bc2, eps float64)

func addNEONFull(dst, src []float32) {
	n := len(dst)
	src = src[:n]
	if blk := n &^ 3; blk > 0 {
		addNEON(dst[:blk], src[:blk])
	}
	for i := n &^ 3; i < n; i++ {
		dst[i] += src[i]
	}
}

func axpyNEONFull(alpha float32, x, y []float32) {
	n := len(y)
	x = x[:n]
	if blk := n &^ 3; blk > 0 {
		axpyNEON(alpha, x[:blk], y[:blk])
	}
	for i := n &^ 3; i < n; i++ {
		y[i] += float32(alpha * x[i])
	}
}

func scaleNEONFull(alpha float32, x []float32) {
	n := len(x)
	if blk := n &^ 3; blk > 0 {
		scaleNEON(alpha, x[:blk])
	}
	for i := n &^ 3; i < n; i++ {
		x[i] *= alpha
	}
}

func zeroNEONFull(x []float32) {
	n := len(x)
	if blk := n &^ 3; blk > 0 {
		zeroNEON(x[:blk])
	}
	for i := n &^ 3; i < n; i++ {
		x[i] = 0
	}
}

func adamNEONFull(w, g, m, v []float32, lr, wd float64, b1, b2 float32, bc1, bc2, eps float64) {
	n := len(w)
	g, m, v = g[:n], m[:n], v[:n]
	if wd != 0 {
		adamDecay(w, lr*wd)
	}
	blk := n &^ 3
	if blk > 0 {
		adamNEON(w[:blk], g[:blk], m[:blk], v[:blk], lr, b1, 1-b1, b2, 1-b2, bc1, bc2, eps)
	}
	adamTail(w, g, m, v, blk, lr, b1, b2, bc1, bc2, eps)
}
