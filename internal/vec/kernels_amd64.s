//go:build amd64

#include "textflag.h"

// amd64 element-wise kernels, SSE2 and AVX2 tiers. Bit-identity with the
// pure-Go reference loops is load-bearing everywhere:
//   - packed single/double ops compute the identical IEEE-754 operations
//     the scalar loop would, lane by lane (no FMA contraction, default
//     rounding; ÷ and √ are correctly rounded and therefore safe);
//   - a reduction is never split across lanes — Dot stays scalar Go by
//     contract; scoreRowsAVX2 runs 8 independent rows' reductions, one
//     row per lane, each in Dot's serial order;
//   - every kernel consumes only whole vector blocks (len pre-trimmed by
//     the Go wrapper, which finishes the tail with the reference loop).
// The AVX2 kernels are VEX-encoded throughout and end in VZEROUPPER so no
// legacy-SSE transition stalls leak into the caller.

// func addSSE2(dst, src []float32)
// dst[i] += src[i]; len(dst) is a positive multiple of 4.
TEXT ·addSSE2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ dst_len+8(FP), CX
	SHRQ $2, CX

addsse2_loop:
	MOVUPS (SI), X1
	MOVUPS (DI), X2
	ADDPS  X1, X2        // dst + src
	MOVUPS X2, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	DECQ   CX
	JNZ    addsse2_loop
	RET

// func addAVX2(dst, src []float32)
// dst[i] += src[i]; len(dst) is a positive multiple of 8.
TEXT ·addAVX2(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ dst_len+8(FP), CX
	SHRQ $3, CX

addavx2_loop:
	VMOVUPS (DI), Y1
	VADDPS  (SI), Y1, Y1 // dst + src
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     addavx2_loop
	VZEROUPPER
	RET

// func axpySSE2(alpha float32, x, y []float32)
// y[i] += alpha*x[i]; len(y) is a positive multiple of 4.
TEXT ·axpySSE2(SB), NOSPLIT, $0-56
	MOVSS  alpha+0(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   x_base+8(FP), SI
	MOVQ   y_base+32(FP), DI
	MOVQ   y_len+40(FP), CX
	SHRQ   $2, CX

axpysse2_loop:
	MOVUPS (SI), X1
	MULPS  X0, X1        // alpha*x
	MOVUPS (DI), X2
	ADDPS  X1, X2        // y + alpha*x
	MOVUPS X2, (DI)
	ADDQ   $16, SI
	ADDQ   $16, DI
	DECQ   CX
	JNZ    axpysse2_loop
	RET

// func scaleSSE2(alpha float32, x []float32)
// x[i] *= alpha; len(x) is a positive multiple of 4.
TEXT ·scaleSSE2(SB), NOSPLIT, $0-32
	MOVSS  alpha+0(FP), X0
	SHUFPS $0x00, X0, X0
	MOVQ   x_base+8(FP), SI
	MOVQ   x_len+16(FP), CX
	SHRQ   $2, CX

scalesse2_loop:
	MOVUPS (SI), X1
	MULPS  X0, X1
	MOVUPS X1, (SI)
	ADDQ   $16, SI
	DECQ   CX
	JNZ    scalesse2_loop
	RET

// func zeroSSE2(x []float32)
// x[i] = 0; len(x) is a positive multiple of 4.
TEXT ·zeroSSE2(SB), NOSPLIT, $0-24
	XORPS X0, X0
	MOVQ  x_base+0(FP), SI
	MOVQ  x_len+8(FP), CX
	SHRQ  $2, CX

zerosse2_loop:
	MOVUPS X0, (SI)
	ADDQ   $16, SI
	DECQ   CX
	JNZ    zerosse2_loop
	RET

// func axpyAVX2(alpha float32, x, y []float32)
// y[i] += alpha*x[i]; len(y) is a positive multiple of 8.
TEXT ·axpyAVX2(SB), NOSPLIT, $0-56
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         y_base+32(FP), DI
	MOVQ         y_len+40(FP), CX
	SHRQ         $3, CX

axpyavx2_loop:
	VMOVUPS (SI), Y1
	VMULPS  Y1, Y0, Y1   // alpha*x
	VADDPS  (DI), Y1, Y1 // y + alpha*x
	VMOVUPS Y1, (DI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	DECQ    CX
	JNZ     axpyavx2_loop
	VZEROUPPER
	RET

// func scaleAVX2(alpha float32, x []float32)
// x[i] *= alpha; len(x) is a positive multiple of 8.
TEXT ·scaleAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y0
	MOVQ         x_base+8(FP), SI
	MOVQ         x_len+16(FP), CX
	SHRQ         $3, CX

scaleavx2_loop:
	VMULPS  (SI), Y0, Y1
	VMOVUPS Y1, (SI)
	ADDQ    $32, SI
	DECQ    CX
	JNZ     scaleavx2_loop
	VZEROUPPER
	RET

// func zeroAVX2(x []float32)
// x[i] = 0; len(x) is a positive multiple of 8.
TEXT ·zeroAVX2(SB), NOSPLIT, $0-24
	VXORPS X0, X0, X0    // zeroes the full Y0
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	SHRQ   $3, CX

zeroavx2_loop:
	VMOVUPS Y0, (SI)
	ADDQ    $32, SI
	DECQ    CX
	JNZ     zeroavx2_loop
	VZEROUPPER
	RET

// func sgd10SSE2(x, y []float32, rating, mean, bu, bi, lr, reg float32) (float32, float32)
//
// SSE2 implementation of the K=10 fused biased-MF SGD step:
//   - the dot product is a strictly serial scalar ADDSS chain starting
//     from +0, exactly the Go accumulation order;
//   - the embedding update is element-wise, so packed MULPS/SUBPS/ADDPS
//     lanes compute the identical IEEE-754 single operations the scalar
//     loop would (no FMA contraction, default rounding);
//   - bias updates replicate the Go expression shapes operation for
//     operation.
TEXT ·sgd10SSE2(SB), NOSPLIT, $0-80
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DI

	// --- dot = Σ x[i]*y[i], serial chain from +0 ---
	XORPS X0, X0
	MOVSS 0(SI), X1
	MULSS 0(DI), X1
	ADDSS X1, X0
	MOVSS 4(SI), X1
	MULSS 4(DI), X1
	ADDSS X1, X0
	MOVSS 8(SI), X1
	MULSS 8(DI), X1
	ADDSS X1, X0
	MOVSS 12(SI), X1
	MULSS 12(DI), X1
	ADDSS X1, X0
	MOVSS 16(SI), X1
	MULSS 16(DI), X1
	ADDSS X1, X0
	MOVSS 20(SI), X1
	MULSS 20(DI), X1
	ADDSS X1, X0
	MOVSS 24(SI), X1
	MULSS 24(DI), X1
	ADDSS X1, X0
	MOVSS 28(SI), X1
	MULSS 28(DI), X1
	ADDSS X1, X0
	MOVSS 32(SI), X1
	MULSS 32(DI), X1
	ADDSS X1, X0
	MOVSS 36(SI), X1
	MULSS 36(DI), X1
	ADDSS X1, X0

	// --- e = rating - (((mean + bu) + bi) + dot) ---
	MOVSS mean+52(FP), X2
	ADDSS bu+56(FP), X2
	ADDSS bi+60(FP), X2
	ADDSS X0, X2
	MOVSS rating+48(FP), X3
	SUBSS X2, X3                  // X3 = e (scalar lane)

	// --- broadcasts: X6 = e, X4 = lr, X5 = reg (lane0 stays scalar) ---
	MOVSS  lr+64(FP), X4
	SHUFPS $0x00, X4, X4
	MOVSS  reg+68(FP), X5
	SHUFPS $0x00, X5, X5
	MOVAPS X3, X6
	SHUFPS $0x00, X6, X6

	// --- lanes 0..3 ---
	MOVUPS 0(SI), X8              // x old
	MOVUPS 0(DI), X9              // y old
	MOVAPS X6, X10
	MULPS  X9, X10                // e*y
	MOVAPS X5, X11
	MULPS  X8, X11                // reg*x
	SUBPS  X11, X10               // e*y - reg*x
	MULPS  X4, X10                // lr*(e*y - reg*x)
	ADDPS  X8, X10                // x' = x + ...
	MOVAPS X6, X12
	MULPS  X8, X12                // e*x_old
	MOVAPS X5, X13
	MULPS  X9, X13                // reg*y
	SUBPS  X13, X12
	MULPS  X4, X12
	ADDPS  X9, X12                // y' = y + ...
	MOVUPS X10, 0(SI)
	MOVUPS X12, 0(DI)

	// --- lanes 4..7 ---
	MOVUPS 16(SI), X8
	MOVUPS 16(DI), X9
	MOVAPS X6, X10
	MULPS  X9, X10
	MOVAPS X5, X11
	MULPS  X8, X11
	SUBPS  X11, X10
	MULPS  X4, X10
	ADDPS  X8, X10
	MOVAPS X6, X12
	MULPS  X8, X12
	MOVAPS X5, X13
	MULPS  X9, X13
	SUBPS  X13, X12
	MULPS  X4, X12
	ADDPS  X9, X12
	MOVUPS X10, 16(SI)
	MOVUPS X12, 16(DI)

	// --- lanes 8..9 (8-byte loads zero the upper half; the junk lanes
	// compute 0*… = 0 and are not stored back) ---
	MOVQ   32(SI), X8
	MOVQ   32(DI), X9
	MOVAPS X6, X10
	MULPS  X9, X10
	MOVAPS X5, X11
	MULPS  X8, X11
	SUBPS  X11, X10
	MULPS  X4, X10
	ADDPS  X8, X10
	MOVAPS X6, X12
	MULPS  X8, X12
	MOVAPS X5, X13
	MULPS  X9, X13
	SUBPS  X13, X12
	MULPS  X4, X12
	ADDPS  X9, X12
	MOVQ   X10, 32(SI)
	MOVQ   X12, 32(DI)

	// --- bu' = bu + lr*(e - reg*bu) ---
	MOVSS  bu+56(FP), X7
	MOVAPS X5, X8
	MULSS  X7, X8
	MOVAPS X3, X9
	SUBSS  X8, X9
	MULSS  X4, X9
	ADDSS  X7, X9
	MOVSS  X9, ret+72(FP)

	// --- bi' = bi + lr*(e - reg*bi) ---
	MOVSS  bi+60(FP), X7
	MOVAPS X5, X8
	MULSS  X7, X8
	MOVAPS X3, X9
	SUBSS  X8, X9
	MULSS  X4, X9
	ADDSS  X7, X9
	MOVSS  X9, ret1+76(FP)

	RET

// func sgd10AVX2(x, y []float32, rating, mean, bu, bi, lr, reg float32) (float32, float32)
//
// AVX2-tier K=10 fused step, deliberately VEX-128: the serial scalar
// VADDSS dot chain (reduction contract) bounds this kernel's latency, so
// 256-bit lanes cannot pay at K=10 — measured on AVX2 hardware, a ymm
// variant loses ~3ns/call to the mandatory VZEROUPPER and ymm broadcast
// overhead while the three-operand VEX xmm forms tie SSE2's best. Lanes
// 0..3 and 4..7 update as xmm blocks, lanes 8..9 in the low half of an
// xmm (VMOVSD 8-byte load/store; the junk upper lanes are computed but
// never stored). No ymm register is touched, so no VZEROUPPER is needed.
TEXT ·sgd10AVX2(SB), NOSPLIT, $0-80
	MOVQ x_base+0(FP), SI
	MOVQ y_base+24(FP), DI

	// --- dot = Σ x[i]*y[i], serial chain from +0 ---
	VXORPS X0, X0, X0
	VMOVSS 0(SI), X1
	VMULSS 0(DI), X1, X1
	VADDSS X1, X0, X0
	VMOVSS 4(SI), X1
	VMULSS 4(DI), X1, X1
	VADDSS X1, X0, X0
	VMOVSS 8(SI), X1
	VMULSS 8(DI), X1, X1
	VADDSS X1, X0, X0
	VMOVSS 12(SI), X1
	VMULSS 12(DI), X1, X1
	VADDSS X1, X0, X0
	VMOVSS 16(SI), X1
	VMULSS 16(DI), X1, X1
	VADDSS X1, X0, X0
	VMOVSS 20(SI), X1
	VMULSS 20(DI), X1, X1
	VADDSS X1, X0, X0
	VMOVSS 24(SI), X1
	VMULSS 24(DI), X1, X1
	VADDSS X1, X0, X0
	VMOVSS 28(SI), X1
	VMULSS 28(DI), X1, X1
	VADDSS X1, X0, X0
	VMOVSS 32(SI), X1
	VMULSS 32(DI), X1, X1
	VADDSS X1, X0, X0
	VMOVSS 36(SI), X1
	VMULSS 36(DI), X1, X1
	VADDSS X1, X0, X0

	// --- e = rating - (((mean + bu) + bi) + dot) ---
	VMOVSS mean+52(FP), X2
	VADDSS bu+56(FP), X2, X2
	VADDSS bi+60(FP), X2, X2
	VADDSS X0, X2, X2
	VMOVSS rating+48(FP), X3
	VSUBSS X2, X3, X3             // X3 = e

	// --- broadcasts: X6 = e, X4 = lr, X5 = reg ---
	VBROADCASTSS lr+64(FP), X4
	VBROADCASTSS reg+68(FP), X5
	VBROADCASTSS X3, X6

	// --- lanes 0..3 ---
	VMOVUPS (SI), X8              // x old
	VMOVUPS (DI), X9              // y old
	VMULPS  X9, X6, X10           // e*y
	VMULPS  X8, X5, X11           // reg*x
	VSUBPS  X11, X10, X10         // e*y - reg*x
	VMULPS  X10, X4, X10          // lr*(...)
	VADDPS  X10, X8, X10          // x' = x + ...
	VMULPS  X8, X6, X12           // e*x_old
	VMULPS  X9, X5, X13           // reg*y
	VSUBPS  X13, X12, X12
	VMULPS  X12, X4, X12
	VADDPS  X12, X9, X12          // y' = y + ...
	VMOVUPS X10, (SI)
	VMOVUPS X12, (DI)

	// --- lanes 4..7 ---
	VMOVUPS 16(SI), X8
	VMOVUPS 16(DI), X9
	VMULPS  X9, X6, X10
	VMULPS  X8, X5, X11
	VSUBPS  X11, X10, X10
	VMULPS  X10, X4, X10
	VADDPS  X10, X8, X10
	VMULPS  X8, X6, X12
	VMULPS  X9, X5, X13
	VSUBPS  X13, X12, X12
	VMULPS  X12, X4, X12
	VADDPS  X12, X9, X12
	VMOVUPS X10, 16(SI)
	VMOVUPS X12, 16(DI)

	// --- lanes 8..9 ---
	VMOVSD 32(SI), X8
	VMOVSD 32(DI), X9
	VMULPS X9, X6, X10
	VMULPS X8, X5, X11
	VSUBPS X11, X10, X10
	VMULPS X10, X4, X10
	VADDPS X10, X8, X10
	VMULPS X8, X6, X12
	VMULPS X9, X5, X13
	VSUBPS X13, X12, X12
	VMULPS X12, X4, X12
	VADDPS X12, X9, X12
	VMOVSD X10, 32(SI)
	VMOVSD X12, 32(DI)

	// --- bu' = bu + lr*(e - reg*bu) ---
	VMOVSS bu+56(FP), X7
	VMULSS X7, X5, X8             // reg*bu
	VSUBSS X8, X3, X9             // e - reg*bu
	VMULSS X9, X4, X9             // lr*(...)
	VADDSS X9, X7, X9             // bu + ...
	VMOVSS X9, ret+72(FP)

	// --- bi' = bi + lr*(e - reg*bi) ---
	VMOVSS bi+60(FP), X7
	VMULSS X7, X5, X8
	VSUBSS X8, X3, X9
	VMULSS X9, X4, X9
	VADDSS X9, X7, X9
	VMOVSS X9, ret1+76(FP)

	RET

// func adamAVX2(w, g, m, v []float32, lr float64, b1, onemb1, b2, onemb2 float32, bc1, bc2, eps float64)
//
// AVX2 fused Adam step, weight decay already applied by the wrapper;
// len(w) is a positive multiple of 4. Per 4-element block:
//
//	m' = b1*m + (1-b1)*g                      (float32 lanes, xmm)
//	v' = b2*v + ((1-b2)*g)*g                  (float32 lanes, xmm)
//	step = lr*(f64(m')/bc1) / (sqrt(f64(v')/bc2) + eps)   (float64, ymm)
//	w' = w - f32(step)
//
// Widening converts are exact, and VDIVPD/VSQRTPD/VCVTPD2PS are IEEE
// correctly rounded, so every lane reproduces the scalar loop bit for bit.
TEXT ·adamAVX2(SB), NOSPLIT, $0-144
	MOVQ w_base+0(FP), DI
	MOVQ g_base+24(FP), SI
	MOVQ m_base+48(FP), R8
	MOVQ v_base+72(FP), R9
	MOVQ w_len+8(FP), CX
	SHRQ $2, CX

	VBROADCASTSS b1+104(FP), X1
	VBROADCASTSS onemb1+108(FP), X2
	VBROADCASTSS b2+112(FP), X3
	VBROADCASTSS onemb2+116(FP), X4
	VBROADCASTSD lr+96(FP), Y5
	VBROADCASTSD bc1+120(FP), Y6
	VBROADCASTSD bc2+128(FP), Y7
	VBROADCASTSD eps+136(FP), Y8

adamavx2_loop:
	VMOVUPS (SI), X9              // g
	VMOVUPS (R8), X10             // m
	VMOVUPS (R9), X11             // v

	VMULPS X10, X1, X10           // b1*m
	VMULPS X9, X2, X12            // (1-b1)*g
	VADDPS X12, X10, X10          // m' = b1*m + (1-b1)*g

	VMULPS X11, X3, X11           // b2*v
	VMULPS X9, X4, X13            // (1-b2)*g
	VMULPS X9, X13, X13           // ((1-b2)*g)*g  — left-assoc like Go
	VADDPS X13, X11, X11          // v'

	VMOVUPS X10, (R8)
	VMOVUPS X11, (R9)

	VCVTPS2PD X10, Y12            // f64(m'), exact
	VCVTPS2PD X11, Y13            // f64(v'), exact
	VDIVPD    Y6, Y12, Y12        // mhat = f64(m')/bc1
	VDIVPD    Y7, Y13, Y13        // vhat = f64(v')/bc2
	VSQRTPD   Y13, Y13            // sqrt(vhat)
	VADDPD    Y8, Y13, Y13        // sqrt(vhat) + eps
	VMULPD    Y12, Y5, Y12        // lr*mhat
	VDIVPD    Y13, Y12, Y12       // step (float64)
	VCVTPD2PSY Y12, X12           // f32(step), correctly rounded

	VMOVUPS (DI), X14
	VSUBPS  X12, X14, X14         // w' = w - f32(step)
	VMOVUPS X14, (DI)

	ADDQ $16, SI
	ADDQ $16, DI
	ADDQ $16, R8
	ADDQ $16, R9
	DECQ CX
	JNZ  adamavx2_loop

	VZEROUPPER
	RET

// Row offsets 0..7 of an 8-row block, scaled by the stride at entry.
DATA scoreRowsIota<>+0(SB)/4, $0
DATA scoreRowsIota<>+4(SB)/4, $1
DATA scoreRowsIota<>+8(SB)/4, $2
DATA scoreRowsIota<>+12(SB)/4, $3
DATA scoreRowsIota<>+16(SB)/4, $4
DATA scoreRowsIota<>+20(SB)/4, $5
DATA scoreRowsIota<>+24(SB)/4, $6
DATA scoreRowsIota<>+28(SB)/4, $7
GLOBL scoreRowsIota<>(SB), RODATA|NOPTR, $32

// func scoreRowsAVX2(out, x, rec []float32, stride int, base float32)
//
// out[s] = (base + rec[s*stride]) + Dot(x, rec[s*stride+1:]) for 8 rows at
// a time, one row per lane: lane j of a block holds row j's sum. Element d
// of the 8 records is gathered at offsets {0, stride, ..., 7*stride}, x[d]
// is broadcast, and each lane runs Dot's own sequence — one accumulator
// from +0, a rounded product, then an add, in d order, no FMA — so every
// lane reproduces the scalar Dot bit for bit. len(out) is a positive
// multiple of 8; the wrapper has bounds-checked the last record and keeps
// 7*stride within int32.
TEXT ·scoreRowsAVX2(SB), NOSPLIT, $0-84
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), CX
	SHRQ $3, CX
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), R8
	MOVQ rec_base+48(FP), BX
	MOVQ stride+72(FP), DX
	VBROADCASTSS base+80(FP), Y7

	MOVQ         DX, X6
	VPBROADCASTD X6, Y6
	VPMULLD      scoreRowsIota<>(SB), Y6, Y6 // row offsets j*stride
	SHLQ         $5, DX                      // block step: 8 rows of 4-byte floats

scorerows_block:
	VXORPS Y0, Y0, Y0             // acc = +0
	LEAQ   4(BX), R10             // factor 0 of the block's first record
	MOVQ   SI, R11
	MOVQ   R8, R12
	TESTQ  R12, R12
	JZ     scorerows_bias

scorerows_dim:
	VPCMPEQD     Y5, Y5, Y5       // gather mask: all lanes (the gather clears it)
	VGATHERDPS   Y5, (R10)(Y6*4), Y1
	VBROADCASTSS (R11), Y2
	VMULPS       Y1, Y2, Y1       // x[d]*r[d]
	VADDPS       Y1, Y0, Y0       // acc + x[d]*r[d]
	ADDQ         $4, R10
	ADDQ         $4, R11
	DECQ         R12
	JNZ          scorerows_dim

scorerows_bias:
	VPCMPEQD   Y5, Y5, Y5
	VGATHERDPS Y5, (BX)(Y6*4), Y3 // the 8 biases
	VADDPS     Y3, Y7, Y3         // base + bias
	VADDPS     Y0, Y3, Y3         // (base + bias) + acc
	VMOVUPS    Y3, (DI)
	ADDQ       $32, DI
	ADDQ       DX, BX
	DECQ       CX
	JNZ        scorerows_block

	VZEROUPPER
	RET
