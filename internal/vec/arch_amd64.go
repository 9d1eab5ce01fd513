//go:build amd64

package vec

import "math"

// Runtime CPU-feature detection, self-contained so the module needs no
// external dependency: CPUID leaf 1 for AVX+OSXSAVE, XGETBV for OS-enabled
// YMM state, CPUID leaf 7 for AVX2. SSE2 is architectural on amd64.

// cpuidRaw executes CPUID with the given EAX/ECX inputs (cpu_amd64.s).
func cpuidRaw(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 reads XCR0, the OS-enabled extended-state mask (cpu_amd64.s).
func xgetbv0() (eax, edx uint32)

// hasAVX2 reports whether both the CPU and the OS support AVX2: the ISA
// bit alone is not enough — the kernel must have enabled YMM state saving
// (XCR0 bits 1 and 2), or executing a VEX.256 instruction faults.
func hasAVX2() bool {
	maxID, _, _, _ := cpuidRaw(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidRaw(1, 0)
	const osxsaveBit, avxBit = 1 << 27, 1 << 28
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return false
	}
	xcr0, _ := xgetbv0()
	const ymmState = 0x6 // XMM (bit 1) + YMM (bit 2)
	if xcr0&ymmState != ymmState {
		return false
	}
	_, ebx7, _, _ := cpuidRaw(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

// archImpls returns the assembly kernel sets this amd64 machine can run,
// best first. SSE2 is always present (part of the base amd64 ISA).
func archImpls() []impl {
	sse2 := impl{
		name:  "sse2",
		add:   addSSE2Full,
		axpy:  axpySSE2Full,
		scale: scaleSSE2Full,
		zero:  zeroSSE2Full,
		sgd10: sgd10SSE2,
		// SSE2 Adam would need 2-wide float64 lanes for marginal gain;
		// the scalar reference loop stays the SSE2-tier implementation.
		adam: adamStepGo,
		// No gather before AVX2: rows score through the reference loop.
		scoreRows: scoreRowsGo,
	}
	if !hasAVX2() {
		return []impl{sse2}
	}
	avx2 := impl{
		name:      "avx2",
		add:       addAVX2Full,
		axpy:      axpyAVX2Full,
		scale:     scaleAVX2Full,
		zero:      zeroAVX2Full,
		sgd10:     sgd10AVX2,
		adam:      adamAVX2Full,
		scoreRows: scoreRowsAVX2Full,
	}
	return []impl{avx2, sse2}
}

// The assembly kernels consume only whole vector blocks (4 floats for
// SSE2, 8 for AVX2; 4 for the AVX2 Adam, which widens to 4×float64); the
// wrappers below trim the slices to the block region and finish the tail
// with the exact reference loop. Element-wise kernels touch each index
// independently, so the split cannot change a single bit.

//go:noescape
func addSSE2(dst, src []float32)

//go:noescape
func addAVX2(dst, src []float32)

//go:noescape
func axpySSE2(alpha float32, x, y []float32)

//go:noescape
func axpyAVX2(alpha float32, x, y []float32)

//go:noescape
func scaleSSE2(alpha float32, x []float32)

//go:noescape
func scaleAVX2(alpha float32, x []float32)

//go:noescape
func zeroSSE2(x []float32)

//go:noescape
func zeroAVX2(x []float32)

//go:noescape
func sgd10SSE2(x, y []float32, rating, mean, bu, bi, lr, reg float32) (float32, float32)

//go:noescape
func sgd10AVX2(x, y []float32, rating, mean, bu, bi, lr, reg float32) (float32, float32)

//go:noescape
func adamAVX2(w, g, m, v []float32, lr float64, b1, onemb1, b2, onemb2 float32, bc1, bc2, eps float64)

//go:noescape
func scoreRowsAVX2(out, x, rec []float32, stride int, base float32)

func addSSE2Full(dst, src []float32) {
	n := len(dst)
	src = src[:n]
	if blk := n &^ 3; blk > 0 {
		addSSE2(dst[:blk], src[:blk])
	}
	for i := n &^ 3; i < n; i++ {
		dst[i] += src[i]
	}
}

func addAVX2Full(dst, src []float32) {
	n := len(dst)
	src = src[:n]
	if blk := n &^ 7; blk > 0 {
		addAVX2(dst[:blk], src[:blk])
	}
	for i := n &^ 7; i < n; i++ {
		dst[i] += src[i]
	}
}

func axpySSE2Full(alpha float32, x, y []float32) {
	n := len(y)
	x = x[:n]
	if blk := n &^ 3; blk > 0 {
		axpySSE2(alpha, x[:blk], y[:blk])
	}
	for i := n &^ 3; i < n; i++ {
		y[i] += float32(alpha * x[i])
	}
}

func axpyAVX2Full(alpha float32, x, y []float32) {
	n := len(y)
	x = x[:n]
	if blk := n &^ 7; blk > 0 {
		axpyAVX2(alpha, x[:blk], y[:blk])
	}
	for i := n &^ 7; i < n; i++ {
		y[i] += float32(alpha * x[i])
	}
}

func scaleSSE2Full(alpha float32, x []float32) {
	n := len(x)
	if blk := n &^ 3; blk > 0 {
		scaleSSE2(alpha, x[:blk])
	}
	for i := n &^ 3; i < n; i++ {
		x[i] *= alpha
	}
}

func scaleAVX2Full(alpha float32, x []float32) {
	n := len(x)
	if blk := n &^ 7; blk > 0 {
		scaleAVX2(alpha, x[:blk])
	}
	for i := n &^ 7; i < n; i++ {
		x[i] *= alpha
	}
}

func zeroSSE2Full(x []float32) {
	n := len(x)
	if blk := n &^ 3; blk > 0 {
		zeroSSE2(x[:blk])
	}
	for i := n &^ 3; i < n; i++ {
		x[i] = 0
	}
}

func zeroAVX2Full(x []float32) {
	n := len(x)
	if blk := n &^ 7; blk > 0 {
		zeroAVX2(x[:blk])
	}
	for i := n &^ 7; i < n; i++ {
		x[i] = 0
	}
}

func adamAVX2Full(w, g, m, v []float32, lr, wd float64, b1, b2 float32, bc1, bc2, eps float64) {
	n := len(w)
	g, m, v = g[:n], m[:n], v[:n]
	if wd != 0 {
		adamDecay(w, lr*wd)
	}
	blk := n &^ 3
	if blk > 0 {
		adamAVX2(w[:blk], g[:blk], m[:blk], v[:blk], lr, b1, 1-b1, b2, 1-b2, bc1, bc2, eps)
	}
	adamTail(w, g, m, v, blk, lr, b1, b2, bc1, bc2, eps)
}

// scoreRowsAVX2Full scores whole 8-row blocks in assembly and the rows past
// the last block with the reference loop. Rows are independent, so the
// split cannot change a bit. Gather indices are int32, so a stride whose
// 7*stride overflows them takes the reference loop throughout.
func scoreRowsAVX2Full(out, x, rec []float32, stride int, base float32) {
	n := len(out)
	if n < 8 || stride < 0 || stride > math.MaxInt32/7 {
		scoreRowsGo(out, x, rec, stride, base)
		return
	}
	_ = rec[(n-1)*stride+len(x)] // the last record read is in bounds
	blk := n &^ 7
	scoreRowsAVX2(out[:blk], x, rec, stride, base)
	scoreRowsGo(out[blk:], x, rec[blk*stride:], stride, base)
}
