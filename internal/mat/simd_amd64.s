// AVX2 micro-kernels for the dense matmul inner loops. Each function
// mirrors its *Go reference in simd.go exactly: vector lanes are
// independent output elements (or, for dot4 and dot2x4, exactly the
// scalar code's four interleaved accumulators), multiplies and adds are
// separate instructions (no FMA — FMA skips the intermediate rounding
// and would change bits), and scalar tails replicate the same
// operation grouping. Results are bitwise identical to the Go
// fallback for every input.

#include "textflag.h"

// func cpuSupportsAVX2() bool
TEXT ·cpuSupportsAVX2(SB), NOSPLIT, $0-1
	// CPUID leaf 1: ECX bit 27 = OSXSAVE, bit 28 = AVX.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $0x18000000, R8
	CMPL R8, $0x18000000
	JNE  cpu_no

	// XGETBV(0): OS must have enabled XMM (bit 1) and YMM (bit 2)
	// state saving.
	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  cpu_no

	// CPUID leaf 7, subleaf 0: EBX bit 5 = AVX2.
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	TESTL $0x20, BX
	JZ    cpu_no

	MOVB $1, ret+0(FP)
	RET

cpu_no:
	MOVB $0, ret+0(FP)
	RET

// func mulAddRows4AVX2(dst, b4 []float64, a0, a1, a2, a3 float64)
//
// dst[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] + a3*b3[j]) with the
// four b-rows of length len(dst) stored back to back in b4.
TEXT ·mulAddRows4AVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	MOVQ b4_base+24(FP), DI
	MOVQ CX, DX
	SHLQ $3, DX              // DX = row stride in bytes
	LEAQ (DI)(DX*2), R9      // R9 = start of row 2

	VBROADCASTSD a0+48(FP), Y0
	VBROADCASTSD a1+56(FP), Y1
	VBROADCASTSD a2+64(FP), Y2
	VBROADCASTSD a3+72(FP), Y3

	CMPQ CX, $4
	JL   mar4_tail_start

mar4_loop:
	VMOVUPD (DI), Y4
	VMULPD  Y4, Y0, Y4       // a0*b0
	VMOVUPD (DI)(DX*1), Y5
	VMULPD  Y5, Y1, Y5       // a1*b1
	VADDPD  Y5, Y4, Y4       // a0*b0 + a1*b1
	VMOVUPD (R9), Y6
	VMULPD  Y6, Y2, Y6       // a2*b2
	VMOVUPD (R9)(DX*1), Y7
	VMULPD  Y7, Y3, Y7       // a3*b3
	VADDPD  Y7, Y6, Y6       // a2*b2 + a3*b3
	VADDPD  Y6, Y4, Y4       // (low) + (high)
	VMOVUPD (SI), Y8
	VADDPD  Y4, Y8, Y8       // dst += sum
	VMOVUPD Y8, (SI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R9
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     mar4_loop

mar4_tail_start:
	VZEROUPPER
	TESTQ CX, CX
	JZ    mar4_done

mar4_tail:
	MOVSD (DI), X4
	MULSD X0, X4
	MOVSD (DI)(DX*1), X5
	MULSD X1, X5
	ADDSD X5, X4
	MOVSD (R9), X6
	MULSD X2, X6
	MOVSD (R9)(DX*1), X7
	MULSD X3, X7
	ADDSD X7, X6
	ADDSD X6, X4
	MOVSD (SI), X8
	ADDSD X4, X8
	MOVSD X8, (SI)
	ADDQ  $8, SI
	ADDQ  $8, DI
	ADDQ  $8, R9
	DECQ  CX
	JNZ   mar4_tail

mar4_done:
	RET

// func mulAddRow1AVX2(dst, b []float64, a float64)
//
// dst[j] += a*b[j].
TEXT ·mulAddRow1AVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	MOVQ b_base+24(FP), DI

	VBROADCASTSD a+48(FP), Y0

	CMPQ CX, $4
	JL   mar1_tail_start

mar1_loop:
	VMOVUPD (DI), Y1
	VMULPD  Y1, Y0, Y1
	VMOVUPD (SI), Y2
	VADDPD  Y1, Y2, Y2
	VMOVUPD Y2, (SI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     mar1_loop

mar1_tail_start:
	VZEROUPPER
	TESTQ CX, CX
	JZ    mar1_done

mar1_tail:
	MOVSD (DI), X1
	MULSD X0, X1
	MOVSD (SI), X2
	ADDSD X1, X2
	MOVSD X2, (SI)
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JNZ   mar1_tail

mar1_done:
	RET

// func dot4AVX2(a, b []float64) float64
//
// Four-accumulator dot product: vector lane i accumulates exactly the
// scalar reference's s_i; the tail adds into s0 before the final
// (s0+s1)+(s2+s3) combine, as in dot4Go.
TEXT ·dot4AVX2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI

	VXORPD Y0, Y0, Y0        // [s0, s1, s2, s3]

	CMPQ CX, $4
	JL   dot4_reduce

dot4_loop:
	VMOVUPD (SI), Y1
	VMOVUPD (DI), Y2
	VMULPD  Y2, Y1, Y1
	VADDPD  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     dot4_loop

dot4_reduce:
	VEXTRACTF128 $1, Y0, X1  // X1 = [s2, s3]; X0 = [s0, s1]
	VZEROUPPER
	TESTQ        CX, CX
	JZ           dot4_combine

dot4_tail:
	MOVSD (SI), X4
	MOVSD (DI), X5
	MULSD X5, X4
	ADDSD X4, X0             // s0 += a[k]*b[k]
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JNZ   dot4_tail

dot4_combine:
	MOVAPD   X0, X2
	UNPCKHPD X0, X2          // X2 lane0 = s1
	ADDSD    X2, X0          // s0 + s1
	MOVAPD   X1, X3
	UNPCKHPD X1, X3          // X3 lane0 = s3
	ADDSD    X3, X1          // s2 + s3
	ADDSD    X1, X0          // (s0+s1) + (s2+s3)
	MOVSD    X0, ret+48(FP)
	RET

// D24_COL multiplies the two a-row quads in Y8 (row 0) and Y9 (row 1)
// by one b-row quad and adds the products into that column's row-0
// and row-1 accumulators — the dot4 lane step, s_l += a[k+l]*b[k+l],
// for two dots at once.
#define D24_COL(bsrc, acc0, acc1) \
	VMOVUPD bsrc, Y10;      \
	VMULPD  Y10, Y8, Y11;   \
	VMULPD  Y10, Y9, Y12;   \
	VADDPD  Y11, acc0, acc0; \
	VADDPD  Y12, acc1, acc1

// func dot2x4AVX2(a, b []float64, lanes *[32]float64)
//
// Lane sums of the eight dot products of two a-rows against four
// b-rows: a holds two rows of length K = len(a)/2 back to back, b four
// rows of length K. Accumulator Y(4r+c) is dot4's [s0, s1, s2, s3] for
// a-row r and b-row c over the K&^3 quad part, stored to lanes[4(4r+c):].
// The caller adds the K%4 tail into s0 and combines, as dot4 does.
// Each quad step loads two a quads and four b quads for eight
// independent multiply/add chains, where dot4 runs one.
TEXT ·dot2x4AVX2(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	MOVQ lanes+48(FP), DX
	SHRQ $1, CX              // CX = K
	MOVQ CX, R8
	SHLQ $3, R8              // R8 = row stride in bytes
	LEAQ (R8)(R8*2), R9      // R9 = 3 row strides
	SHRQ $2, CX              // CX = quads

	VXORPD Y0, Y0, Y0        // a0·b0
	VXORPD Y1, Y1, Y1        // a0·b1
	VXORPD Y2, Y2, Y2        // a0·b2
	VXORPD Y3, Y3, Y3        // a0·b3
	VXORPD Y4, Y4, Y4        // a1·b0
	VXORPD Y5, Y5, Y5        // a1·b1
	VXORPD Y6, Y6, Y6        // a1·b2
	VXORPD Y7, Y7, Y7        // a1·b3

	TESTQ CX, CX
	JZ    d24_store

d24_loop:
	VMOVUPD (SI), Y8
	VMOVUPD (SI)(R8*1), Y9
	D24_COL((DI), Y0, Y4)
	D24_COL((DI)(R8*1), Y1, Y5)
	D24_COL((DI)(R8*2), Y2, Y6)
	D24_COL((DI)(R9*1), Y3, Y7)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  d24_loop

d24_store:
	VMOVUPD Y0, 0(DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

// func hadamardIntoAVX2(dst, a, b []float64)
//
// dst[i] = a[i]*b[i].
TEXT ·hadamardIntoAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), R8
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DI

	CMPQ CX, $4
	JL   had_tail_start

had_loop:
	VMOVUPD (SI), Y1
	VMOVUPD (DI), Y2
	VMULPD  Y2, Y1, Y1
	VMOVUPD Y1, (R8)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     had_loop

had_tail_start:
	VZEROUPPER
	TESTQ CX, CX
	JZ    had_done

had_tail:
	MOVSD (SI), X1
	MOVSD (DI), X2
	MULSD X2, X1
	MOVSD X1, (R8)
	ADDQ  $8, SI
	ADDQ  $8, DI
	ADDQ  $8, R8
	DECQ  CX
	JNZ   had_tail

had_done:
	RET

// func cpuSupportsAVX512() bool
TEXT ·cpuSupportsAVX512(SB), NOSPLIT, $0-1
	// OSXSAVE + AVX as for AVX2.
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $0x18000000, R8
	CMPL R8, $0x18000000
	JNE  cpu512_no

	// XCR0: XMM+YMM (bits 1-2) and opmask+ZMM state (bits 5-7).
	XORL CX, CX
	XGETBV
	ANDL $0xE6, AX
	CMPL AX, $0xE6
	JNE  cpu512_no

	// CPUID leaf 7, subleaf 0: EBX bit 16 = AVX512F.
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	TESTL $0x10000, BX
	JZ    cpu512_no

	MOVB $1, ret+0(FP)
	RET

cpu512_no:
	MOVB $0, ret+0(FP)
	RET

// func mulAddRows4AVX512(dst, b4 []float64, a0, a1, a2, a3 float64)
//
// The 512-bit flavor of mulAddRows4: 8 lanes per step, then the
// 4-lane step, then the scalar tail — every output element sees the
// identical multiply/add sequence regardless of which step handles
// it, so the result matches the scalar reference bit for bit.
TEXT ·mulAddRows4AVX512(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	MOVQ b4_base+24(FP), DI
	MOVQ CX, DX
	SHLQ $3, DX              // DX = row stride in bytes
	LEAQ (DI)(DX*2), R9      // R9 = start of row 2

	VBROADCASTSD a0+48(FP), Z0
	VBROADCASTSD a1+56(FP), Z1
	VBROADCASTSD a2+64(FP), Z2
	VBROADCASTSD a3+72(FP), Z3

	CMPQ CX, $8
	JL   m512_quad_start

m512_loop:
	VMOVUPD (DI), Z4
	VMULPD  Z4, Z0, Z4       // a0*b0
	VMOVUPD (DI)(DX*1), Z5
	VMULPD  Z5, Z1, Z5       // a1*b1
	VADDPD  Z5, Z4, Z4       // a0*b0 + a1*b1
	VMOVUPD (R9), Z6
	VMULPD  Z6, Z2, Z6       // a2*b2
	VMOVUPD (R9)(DX*1), Z7
	VMULPD  Z7, Z3, Z7       // a3*b3
	VADDPD  Z7, Z6, Z6       // a2*b2 + a3*b3
	VADDPD  Z6, Z4, Z4       // (low) + (high)
	VMOVUPD (SI), Z8
	VADDPD  Z4, Z8, Z8       // dst += sum
	VMOVUPD Z8, (SI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	ADDQ    $64, R9
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     m512_loop

m512_quad_start:
	CMPQ CX, $4
	JL   m512_tail_start

	// One 4-lane step (the Y registers alias the Z broadcasts).
	VMOVUPD (DI), Y4
	VMULPD  Y4, Y0, Y4
	VMOVUPD (DI)(DX*1), Y5
	VMULPD  Y5, Y1, Y5
	VADDPD  Y5, Y4, Y4
	VMOVUPD (R9), Y6
	VMULPD  Y6, Y2, Y6
	VMOVUPD (R9)(DX*1), Y7
	VMULPD  Y7, Y3, Y7
	VADDPD  Y7, Y6, Y6
	VADDPD  Y6, Y4, Y4
	VMOVUPD (SI), Y8
	VADDPD  Y4, Y8, Y8
	VMOVUPD Y8, (SI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R9
	SUBQ    $4, CX

m512_tail_start:
	VZEROUPPER
	TESTQ CX, CX
	JZ    m512_done

m512_tail:
	MOVSD (DI), X4
	MULSD X0, X4
	MOVSD (DI)(DX*1), X5
	MULSD X1, X5
	ADDSD X5, X4
	MOVSD (R9), X6
	MULSD X2, X6
	MOVSD (R9)(DX*1), X7
	MULSD X3, X7
	ADDSD X7, X6
	ADDSD X6, X4
	MOVSD (SI), X8
	ADDSD X4, X8
	MOVSD X8, (SI)
	ADDQ  $8, SI
	ADDQ  $8, DI
	ADDQ  $8, R9
	DECQ  CX
	JNZ   m512_tail

m512_done:
	RET

// func addBiasLeakyAVX2(dst, bias []float64, slope float64)
//
// dst[i] = v > 0 ? v : slope*v, with v = dst[i] + bias[i]. The blend
// selects the exact scalar-formula result per lane (including signed
// zeros and NaNs), so this matches addBiasLeakyGo bit for bit.
TEXT ·addBiasLeakyAVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	MOVQ bias_base+24(FP), DI

	VBROADCASTSD slope+48(FP), Y0
	VXORPD       Y1, Y1, Y1  // zero

	CMPQ CX, $4
	JL   abl_tail_start

abl_loop:
	VMOVUPD   (SI), Y2
	VMOVUPD   (DI), Y3
	VADDPD    Y3, Y2, Y2     // v = dst + bias
	VMULPD    Y2, Y0, Y3     // slope*v
	VCMPPD    $0x1E, Y1, Y2, Y4 // v > 0 (GT_OQ)
	VBLENDVPD Y4, Y2, Y3, Y2 // v > 0 ? v : slope*v
	VMOVUPD   Y2, (SI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $4, CX
	CMPQ      CX, $4
	JGE       abl_loop

abl_tail_start:
	VZEROUPPER
	TESTQ CX, CX
	JZ    abl_done

abl_tail:
	MOVSD  (SI), X2
	MOVSD  (DI), X3
	ADDSD  X3, X2            // v
	MOVAPD X2, X3
	MULSD  X0, X3            // slope*v
	XORPS  X4, X4
	UCOMISD X4, X2           // compare v with 0
	JA     abl_keep
	MOVAPD X3, X2
abl_keep:
	MOVSD X2, (SI)
	ADDQ  $8, SI
	ADDQ  $8, DI
	DECQ  CX
	JNZ   abl_tail

abl_done:
	RET

// ---------------------------------------------------------------------
// float32 kernels — the serving engine's quantized twins. Same
// discipline as the f64 set above (no FMA, lanes are independent
// output elements or dot8's exact interleaved accumulators, scalar
// tails replicate the vector grouping), with 8 float32 lanes per ymm
// instead of 4 float64 lanes. Bitwise identical to the *Go32
// references in simd32.go for every input.

// func mulAddRows4AVX2F32(dst, b4 []float32, a0, a1, a2, a3 float32)
//
// dst[j] += (a0*b0[j] + a1*b1[j]) + (a2*b2[j] + a3*b3[j]) with the
// four b-rows of length len(dst) stored back to back in b4.
TEXT ·mulAddRows4AVX2F32(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	MOVQ b4_base+24(FP), DI
	MOVQ CX, DX
	SHLQ $2, DX              // DX = row stride in bytes
	LEAQ (DI)(DX*2), R9      // R9 = start of row 2

	VBROADCASTSS a0+48(FP), Y0
	VBROADCASTSS a1+52(FP), Y1
	VBROADCASTSS a2+56(FP), Y2
	VBROADCASTSS a3+60(FP), Y3

	CMPQ CX, $8
	JL   mar4f_tail_start

mar4f_loop:
	VMOVUPS (DI), Y4
	VMULPS  Y4, Y0, Y4       // a0*b0
	VMOVUPS (DI)(DX*1), Y5
	VMULPS  Y5, Y1, Y5       // a1*b1
	VADDPS  Y5, Y4, Y4       // a0*b0 + a1*b1
	VMOVUPS (R9), Y6
	VMULPS  Y6, Y2, Y6       // a2*b2
	VMOVUPS (R9)(DX*1), Y7
	VMULPS  Y7, Y3, Y7       // a3*b3
	VADDPS  Y7, Y6, Y6       // a2*b2 + a3*b3
	VADDPS  Y6, Y4, Y4       // (low) + (high)
	VMOVUPS (SI), Y8
	VADDPS  Y4, Y8, Y8       // dst += sum
	VMOVUPS Y8, (SI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R9
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     mar4f_loop

mar4f_tail_start:
	VZEROUPPER
	TESTQ CX, CX
	JZ    mar4f_done

mar4f_tail:
	MOVSS (DI), X4
	MULSS X0, X4
	MOVSS (DI)(DX*1), X5
	MULSS X1, X5
	ADDSS X5, X4
	MOVSS (R9), X6
	MULSS X2, X6
	MOVSS (R9)(DX*1), X7
	MULSS X3, X7
	ADDSS X7, X6
	ADDSS X6, X4
	MOVSS (SI), X8
	ADDSS X4, X8
	MOVSS X8, (SI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	ADDQ  $4, R9
	DECQ  CX
	JNZ   mar4f_tail

mar4f_done:
	RET

// func mulAddRow1AVX2F32(dst, b []float32, a float32)
//
// dst[j] += a*b[j].
TEXT ·mulAddRow1AVX2F32(SB), NOSPLIT, $0-52
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	MOVQ b_base+24(FP), DI

	VBROADCASTSS a+48(FP), Y0

	CMPQ CX, $8
	JL   mar1f_tail_start

mar1f_loop:
	VMOVUPS (DI), Y1
	VMULPS  Y1, Y0, Y1
	VMOVUPS (SI), Y2
	VADDPS  Y1, Y2, Y2
	VMOVUPS Y2, (SI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     mar1f_loop

mar1f_tail_start:
	VZEROUPPER
	TESTQ CX, CX
	JZ    mar1f_done

mar1f_tail:
	MOVSS (DI), X1
	MULSS X0, X1
	MOVSS (SI), X2
	ADDSS X1, X2
	MOVSS X2, (SI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   mar1f_tail

mar1f_done:
	RET

// func dot8AVX2F32(a, b []float32) float32
//
// Eight-accumulator dot product: vector lane i accumulates exactly the
// scalar reference's s_i; the tail adds into s0 before the final
// ((s0+s2)+(s1+s3)) + ((s4+s6)+(s5+s7)) combine, as in dot8Go32.
TEXT ·dot8AVX2F32(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI

	VXORPS Y0, Y0, Y0        // [s0..s7]

	CMPQ CX, $8
	JL   dot8f_reduce

dot8f_loop:
	VMOVUPS (SI), Y1
	VMOVUPS (DI), Y2
	VMULPS  Y2, Y1, Y1
	VADDPS  Y1, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     dot8f_loop

dot8f_reduce:
	VEXTRACTF128 $1, Y0, X1  // X1 = [s4..s7]; X0 = [s0..s3]
	VZEROUPPER
	TESTQ        CX, CX
	JZ           dot8f_combine

dot8f_tail:
	MOVSS (SI), X4
	MOVSS (DI), X5
	MULSS X5, X4
	ADDSS X4, X0             // s0 += a[k]*b[k]
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   dot8f_tail

dot8f_combine:
	MOVAPS  X0, X2
	MOVHLPS X0, X2           // X2 = [s2, s3]
	ADDPS   X2, X0           // X0 = [s0+s2, s1+s3, ..]
	MOVAPS  X0, X3
	SHUFPS  $0x55, X3, X3    // X3 lane0 = s1+s3
	ADDSS   X3, X0           // (s0+s2) + (s1+s3)
	MOVAPS  X1, X4
	MOVHLPS X1, X4           // X4 = [s6, s7]
	ADDPS   X4, X1           // X1 = [s4+s6, s5+s7, ..]
	MOVAPS  X1, X5
	SHUFPS  $0x55, X5, X5    // X5 lane0 = s5+s7
	ADDSS   X5, X1           // (s4+s6) + (s5+s7)
	ADDSS   X1, X0           // low + high
	MOVSS   X0, ret+48(FP)
	RET

// func addBiasLeakyAVX2F32(dst, bias []float32, slope float32)
//
// dst[i] = v > 0 ? v : slope*v, with v = dst[i] + bias[i]. The blend
// selects the exact scalar-formula result per lane (including signed
// zeros and NaNs), so this matches addBiasLeakyGo32 bit for bit.
TEXT ·addBiasLeakyAVX2F32(SB), NOSPLIT, $0-52
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	MOVQ bias_base+24(FP), DI

	VBROADCASTSS slope+48(FP), Y0
	VXORPS       Y1, Y1, Y1  // zero

	CMPQ CX, $8
	JL   ablf_tail_start

ablf_loop:
	VMOVUPS   (SI), Y2
	VMOVUPS   (DI), Y3
	VADDPS    Y3, Y2, Y2     // v = dst + bias
	VMULPS    Y2, Y0, Y3     // slope*v
	VCMPPS    $0x1E, Y1, Y2, Y4 // v > 0 (GT_OQ)
	VBLENDVPS Y4, Y2, Y3, Y2 // v > 0 ? v : slope*v
	VMOVUPS   Y2, (SI)
	ADDQ      $32, SI
	ADDQ      $32, DI
	SUBQ      $8, CX
	CMPQ      CX, $8
	JGE       ablf_loop

ablf_tail_start:
	VZEROUPPER
	TESTQ CX, CX
	JZ    ablf_done

ablf_tail:
	MOVSS  (SI), X2
	MOVSS  (DI), X3
	ADDSS  X3, X2            // v
	MOVAPS X2, X3
	MULSS  X0, X3            // slope*v
	XORPS  X4, X4
	UCOMISS X4, X2           // compare v with 0
	JA     ablf_keep
	MOVAPS X3, X2
ablf_keep:
	MOVSS X2, (SI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	DECQ  CX
	JNZ   ablf_tail

ablf_done:
	RET

// func mulAddRows4AVX512F32(dst, b4 []float32, a0, a1, a2, a3 float32)
//
// The 512-bit flavor of mulAddRows4F32: 16 lanes per step, then one
// 8-lane step, then the scalar tail — every output element sees the
// identical multiply/add sequence regardless of which step handles
// it, so the result matches the scalar reference bit for bit.
TEXT ·mulAddRows4AVX512F32(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	MOVQ b4_base+24(FP), DI
	MOVQ CX, DX
	SHLQ $2, DX              // DX = row stride in bytes
	LEAQ (DI)(DX*2), R9      // R9 = start of row 2

	VBROADCASTSS a0+48(FP), Z0
	VBROADCASTSS a1+52(FP), Z1
	VBROADCASTSS a2+56(FP), Z2
	VBROADCASTSS a3+60(FP), Z3

	CMPQ CX, $16
	JL   m512f_oct_start

m512f_loop:
	VMOVUPS (DI), Z4
	VMULPS  Z4, Z0, Z4       // a0*b0
	VMOVUPS (DI)(DX*1), Z5
	VMULPS  Z5, Z1, Z5       // a1*b1
	VADDPS  Z5, Z4, Z4       // a0*b0 + a1*b1
	VMOVUPS (R9), Z6
	VMULPS  Z6, Z2, Z6       // a2*b2
	VMOVUPS (R9)(DX*1), Z7
	VMULPS  Z7, Z3, Z7       // a3*b3
	VADDPS  Z7, Z6, Z6       // a2*b2 + a3*b3
	VADDPS  Z6, Z4, Z4       // (low) + (high)
	VMOVUPS (SI), Z8
	VADDPS  Z4, Z8, Z8       // dst += sum
	VMOVUPS Z8, (SI)
	ADDQ    $64, SI
	ADDQ    $64, DI
	ADDQ    $64, R9
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     m512f_loop

m512f_oct_start:
	CMPQ CX, $8
	JL   m512f_tail_start

	// One 8-lane step (the Y registers alias the Z broadcasts).
	VMOVUPS (DI), Y4
	VMULPS  Y4, Y0, Y4
	VMOVUPS (DI)(DX*1), Y5
	VMULPS  Y5, Y1, Y5
	VADDPS  Y5, Y4, Y4
	VMOVUPS (R9), Y6
	VMULPS  Y6, Y2, Y6
	VMOVUPS (R9)(DX*1), Y7
	VMULPS  Y7, Y3, Y7
	VADDPS  Y7, Y6, Y6
	VADDPS  Y6, Y4, Y4
	VMOVUPS (SI), Y8
	VADDPS  Y4, Y8, Y8
	VMOVUPS Y8, (SI)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R9
	SUBQ    $8, CX

m512f_tail_start:
	VZEROUPPER
	TESTQ CX, CX
	JZ    m512f_done

m512f_tail:
	MOVSS (DI), X4
	MULSS X0, X4
	MOVSS (DI)(DX*1), X5
	MULSS X1, X5
	ADDSS X5, X4
	MOVSS (R9), X6
	MULSS X2, X6
	MOVSS (R9)(DX*1), X7
	MULSS X3, X7
	ADDSS X7, X6
	ADDSS X6, X4
	MOVSS (SI), X8
	ADDSS X4, X8
	MOVSS X8, (SI)
	ADDQ  $4, SI
	ADDQ  $4, DI
	ADDQ  $4, R9
	DECQ  CX
	JNZ   m512f_tail

m512f_done:
	RET

// ---------------------------------------------------------------------
// Four-row kernels: mulAddRows4 for four dst rows sharing one b quad.
// dst holds four rows of length n = len(dst)/4 back to back, b4 the
// four b-rows of length n, and a the four rows' coefficient quads
// (a[4r..4r+3] for dst row r). Every b vector is loaded once and feeds
// all four rows, so a caller streaming a weight matrix for four inputs
// reads it once instead of four times. Per output element the
// multiply/add sequence is exactly mulAddRows4's, so each dst row is
// bitwise identical to a mulAddRows4 call on it.

// M44_ROW_AVX2 accumulates dst row d += (c0*b0 + c1*b1) + (c2*b2 +
// c3*b3) over one ymm of lanes, with b0..b3 in Y0..Y3 and the row's
// coefficients (elements of sz bytes) at byte offset c of R8,
// broadcast from memory. Sixteen ymm registers cannot hold sixteen
// broadcasts next to the b vectors and temporaries, so the AVX2
// kernels keep rows 0 and 1's coefficients in Y8..Y15 (M44_ROW_AVX2R)
// and broadcast rows 2 and 3's on every step. BCAST/MUL/ADD/MOV are
// the f64 (VBROADCASTSD, VMULPD, VADDPD, VMOVUPD) or f32
// (VBROADCASTSS, VMULPS, VADDPS, VMOVUPS) instructions.
#define M44_ROW_AVX2(BCAST, MUL, ADD, MOV, sz, c, d) \
	BCAST (c)(R8), Y4;      \
	MUL   Y0, Y4, Y4;       \
	BCAST (c+sz)(R8), Y5;   \
	MUL   Y1, Y5, Y5;       \
	ADD   Y5, Y4, Y4;       \
	BCAST (c+2*sz)(R8), Y5; \
	MUL   Y2, Y5, Y5;       \
	BCAST (c+3*sz)(R8), Y6; \
	MUL   Y3, Y6, Y6;       \
	ADD   Y6, Y5, Y5;       \
	ADD   Y5, Y4, Y4;       \
	MOV   d, Y6;            \
	ADD   Y4, Y6, Y6;       \
	MOV   Y6, d

// M44_ROW_AVX2R is M44_ROW_AVX2 with the row's four coefficient
// broadcasts already in registers c0..c3.
#define M44_ROW_AVX2R(MUL, ADD, MOV, c0, c1, c2, c3, d) \
	MUL Y0, c0, Y4; \
	MUL Y1, c1, Y5; \
	ADD Y5, Y4, Y4; \
	MUL Y2, c2, Y5; \
	MUL Y3, c3, Y6; \
	ADD Y6, Y5, Y5; \
	ADD Y5, Y4, Y4; \
	MOV d, Y6;      \
	ADD Y4, Y6, Y6; \
	MOV Y6, d

// M44_ROW_SSE is the scalar-tail form of M44_ROW_AVX2, with b0..b3 in
// X0..X3 and MOVS/MULS/ADDS the f64 (MOVSD, MULSD, ADDSD) or f32
// (MOVSS, MULSS, ADDSS) instructions.
#define M44_ROW_SSE(MOVS, MULS, ADDS, sz, c, d) \
	MOVS (c)(R8), X4;      \
	MULS X0, X4;           \
	MOVS (c+sz)(R8), X5;   \
	MULS X1, X5;           \
	ADDS X5, X4;           \
	MOVS (c+2*sz)(R8), X5; \
	MULS X2, X5;           \
	MOVS (c+3*sz)(R8), X6; \
	MULS X3, X6;           \
	ADDS X6, X5;           \
	ADDS X5, X4;           \
	MOVS d, X6;            \
	ADDS X4, X6;           \
	MOVS X6, d

// func mulAddRows4x4AVX2(dst, b4 []float64, a *[16]float64)
TEXT ·mulAddRows4x4AVX2(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	MOVQ b4_base+24(FP), DI
	MOVQ a+48(FP), R8
	SHRQ $2, CX              // CX = n
	MOVQ CX, DX
	SHLQ $3, DX              // DX = row stride in bytes
	LEAQ (DI)(DX*2), R9      // R9 = b row 2
	LEAQ (SI)(DX*2), R10     // R10 = dst row 2

	VBROADCASTSD 0(R8), Y8
	VBROADCASTSD 8(R8), Y9
	VBROADCASTSD 16(R8), Y10
	VBROADCASTSD 24(R8), Y11
	VBROADCASTSD 32(R8), Y12
	VBROADCASTSD 40(R8), Y13
	VBROADCASTSD 48(R8), Y14
	VBROADCASTSD 56(R8), Y15

	CMPQ CX, $4
	JL   m44_tail_start

m44_loop:
	VMOVUPD (DI), Y0
	VMOVUPD (DI)(DX*1), Y1
	VMOVUPD (R9), Y2
	VMOVUPD (R9)(DX*1), Y3
	M44_ROW_AVX2R(VMULPD, VADDPD, VMOVUPD, Y8, Y9, Y10, Y11, (SI))
	M44_ROW_AVX2R(VMULPD, VADDPD, VMOVUPD, Y12, Y13, Y14, Y15, (SI)(DX*1))
	M44_ROW_AVX2(VBROADCASTSD, VMULPD, VADDPD, VMOVUPD, 8, 64, (R10))
	M44_ROW_AVX2(VBROADCASTSD, VMULPD, VADDPD, VMOVUPD, 8, 96, (R10)(DX*1))
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R9
	ADDQ    $32, R10
	SUBQ    $4, CX
	CMPQ    CX, $4
	JGE     m44_loop

m44_tail_start:
	VZEROUPPER
	TESTQ CX, CX
	JZ    m44_done

m44_tail:
	MOVSD (DI), X0
	MOVSD (DI)(DX*1), X1
	MOVSD (R9), X2
	MOVSD (R9)(DX*1), X3
	M44_ROW_SSE(MOVSD, MULSD, ADDSD, 8, 0, (SI))
	M44_ROW_SSE(MOVSD, MULSD, ADDSD, 8, 32, (SI)(DX*1))
	M44_ROW_SSE(MOVSD, MULSD, ADDSD, 8, 64, (R10))
	M44_ROW_SSE(MOVSD, MULSD, ADDSD, 8, 96, (R10)(DX*1))
	ADDQ  $8, SI
	ADDQ  $8, DI
	ADDQ  $8, R9
	ADDQ  $8, R10
	DECQ  CX
	JNZ   m44_tail

m44_done:
	RET

// M44_SUM_Z computes Z4 = (c0*b0 + c1*b1) + (c2*b2 + c3*b3) over one
// zmm of lanes, with b0..b3 in Z0..Z3 and MUL/ADD the f64 (VMULPD,
// VADDPD) or f32 (VMULPS, VADDPS) instructions.
#define M44_SUM_Z(MUL, ADD, c0, c1, c2, c3) \
	MUL Z0, c0, Z4; \
	MUL Z1, c1, Z5; \
	ADD Z5, Z4, Z4; \
	MUL Z2, c2, Z5; \
	MUL Z3, c3, Z6; \
	ADD Z6, Z5, Z5; \
	ADD Z5, Z4, Z4

// func mulAddRows4x4AVX512(dst, b4 []float64, a *[16]float64)
//
// The 512-bit flavor: the sixteen coefficients live in Z16..Z31 for
// the whole call, 8 lanes per step, and the last n%8 lanes run one
// masked step (masked-off lanes are neither loaded nor stored), so
// every element still sees the identical multiply/add sequence.
TEXT ·mulAddRows4x4AVX512(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	MOVQ b4_base+24(FP), DI
	MOVQ a+48(FP), R8
	SHRQ $2, CX              // CX = n
	MOVQ CX, DX
	SHLQ $3, DX              // DX = row stride in bytes
	LEAQ (DI)(DX*2), R9      // R9 = b row 2
	LEAQ (SI)(DX*2), R10     // R10 = dst row 2

	VBROADCASTSD 0(R8), Z16
	VBROADCASTSD 8(R8), Z17
	VBROADCASTSD 16(R8), Z18
	VBROADCASTSD 24(R8), Z19
	VBROADCASTSD 32(R8), Z20
	VBROADCASTSD 40(R8), Z21
	VBROADCASTSD 48(R8), Z22
	VBROADCASTSD 56(R8), Z23
	VBROADCASTSD 64(R8), Z24
	VBROADCASTSD 72(R8), Z25
	VBROADCASTSD 80(R8), Z26
	VBROADCASTSD 88(R8), Z27
	VBROADCASTSD 96(R8), Z28
	VBROADCASTSD 104(R8), Z29
	VBROADCASTSD 112(R8), Z30
	VBROADCASTSD 120(R8), Z31

	CMPQ CX, $8
	JL   m44z_rem

m44z_loop:
	VMOVUPD (DI), Z0
	VMOVUPD (DI)(DX*1), Z1
	VMOVUPD (R9), Z2
	VMOVUPD (R9)(DX*1), Z3
	M44_SUM_Z(VMULPD, VADDPD, Z16, Z17, Z18, Z19)
	VMOVUPD (SI), Z6
	VADDPD  Z4, Z6, Z6
	VMOVUPD Z6, (SI)
	M44_SUM_Z(VMULPD, VADDPD, Z20, Z21, Z22, Z23)
	VMOVUPD (SI)(DX*1), Z6
	VADDPD  Z4, Z6, Z6
	VMOVUPD Z6, (SI)(DX*1)
	M44_SUM_Z(VMULPD, VADDPD, Z24, Z25, Z26, Z27)
	VMOVUPD (R10), Z6
	VADDPD  Z4, Z6, Z6
	VMOVUPD Z6, (R10)
	M44_SUM_Z(VMULPD, VADDPD, Z28, Z29, Z30, Z31)
	VMOVUPD (R10)(DX*1), Z6
	VADDPD  Z4, Z6, Z6
	VMOVUPD Z6, (R10)(DX*1)
	ADDQ    $64, SI
	ADDQ    $64, DI
	ADDQ    $64, R9
	ADDQ    $64, R10
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     m44z_loop

m44z_rem:
	TESTQ CX, CX
	JZ    m44z_done
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1             // K1 = the n%8 live lanes

	VMOVUPD.Z (DI), K1, Z0
	VMOVUPD.Z (DI)(DX*1), K1, Z1
	VMOVUPD.Z (R9), K1, Z2
	VMOVUPD.Z (R9)(DX*1), K1, Z3
	M44_SUM_Z(VMULPD, VADDPD, Z16, Z17, Z18, Z19)
	VMOVUPD.Z (SI), K1, Z6
	VADDPD    Z4, Z6, Z6
	VMOVUPD   Z6, K1, (SI)
	M44_SUM_Z(VMULPD, VADDPD, Z20, Z21, Z22, Z23)
	VMOVUPD.Z (SI)(DX*1), K1, Z6
	VADDPD    Z4, Z6, Z6
	VMOVUPD   Z6, K1, (SI)(DX*1)
	M44_SUM_Z(VMULPD, VADDPD, Z24, Z25, Z26, Z27)
	VMOVUPD.Z (R10), K1, Z6
	VADDPD    Z4, Z6, Z6
	VMOVUPD   Z6, K1, (R10)
	M44_SUM_Z(VMULPD, VADDPD, Z28, Z29, Z30, Z31)
	VMOVUPD.Z (R10)(DX*1), K1, Z6
	VADDPD    Z4, Z6, Z6
	VMOVUPD   Z6, K1, (R10)(DX*1)

m44z_done:
	VZEROUPPER
	RET

// func mulAddRows4x4AVX2F32(dst, b4 []float32, a *[16]float32)
TEXT ·mulAddRows4x4AVX2F32(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	MOVQ b4_base+24(FP), DI
	MOVQ a+48(FP), R8
	SHRQ $2, CX              // CX = n
	MOVQ CX, DX
	SHLQ $2, DX              // DX = row stride in bytes
	LEAQ (DI)(DX*2), R9      // R9 = b row 2
	LEAQ (SI)(DX*2), R10     // R10 = dst row 2

	VBROADCASTSS 0(R8), Y8
	VBROADCASTSS 4(R8), Y9
	VBROADCASTSS 8(R8), Y10
	VBROADCASTSS 12(R8), Y11
	VBROADCASTSS 16(R8), Y12
	VBROADCASTSS 20(R8), Y13
	VBROADCASTSS 24(R8), Y14
	VBROADCASTSS 28(R8), Y15

	CMPQ CX, $8
	JL   m44f_tail_start

m44f_loop:
	VMOVUPS (DI), Y0
	VMOVUPS (DI)(DX*1), Y1
	VMOVUPS (R9), Y2
	VMOVUPS (R9)(DX*1), Y3
	M44_ROW_AVX2R(VMULPS, VADDPS, VMOVUPS, Y8, Y9, Y10, Y11, (SI))
	M44_ROW_AVX2R(VMULPS, VADDPS, VMOVUPS, Y12, Y13, Y14, Y15, (SI)(DX*1))
	M44_ROW_AVX2(VBROADCASTSS, VMULPS, VADDPS, VMOVUPS, 4, 32, (R10))
	M44_ROW_AVX2(VBROADCASTSS, VMULPS, VADDPS, VMOVUPS, 4, 48, (R10)(DX*1))
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R9
	ADDQ    $32, R10
	SUBQ    $8, CX
	CMPQ    CX, $8
	JGE     m44f_loop

m44f_tail_start:
	VZEROUPPER
	TESTQ CX, CX
	JZ    m44f_done

m44f_tail:
	MOVSS (DI), X0
	MOVSS (DI)(DX*1), X1
	MOVSS (R9), X2
	MOVSS (R9)(DX*1), X3
	M44_ROW_SSE(MOVSS, MULSS, ADDSS, 4, 0, (SI))
	M44_ROW_SSE(MOVSS, MULSS, ADDSS, 4, 16, (SI)(DX*1))
	M44_ROW_SSE(MOVSS, MULSS, ADDSS, 4, 32, (R10))
	M44_ROW_SSE(MOVSS, MULSS, ADDSS, 4, 48, (R10)(DX*1))
	ADDQ  $4, SI
	ADDQ  $4, DI
	ADDQ  $4, R9
	ADDQ  $4, R10
	DECQ  CX
	JNZ   m44f_tail

m44f_done:
	RET

// func mulAddRows4x4AVX512F32(dst, b4 []float32, a *[16]float32)
//
// The 512-bit float32 flavor: coefficients in Z16..Z31, 16 lanes per
// step, one masked step for the last n%16 lanes.
TEXT ·mulAddRows4x4AVX512F32(SB), NOSPLIT, $0-56
	MOVQ dst_base+0(FP), SI
	MOVQ dst_len+8(FP), CX
	MOVQ b4_base+24(FP), DI
	MOVQ a+48(FP), R8
	SHRQ $2, CX              // CX = n
	MOVQ CX, DX
	SHLQ $2, DX              // DX = row stride in bytes
	LEAQ (DI)(DX*2), R9      // R9 = b row 2
	LEAQ (SI)(DX*2), R10     // R10 = dst row 2

	VBROADCASTSS 0(R8), Z16
	VBROADCASTSS 4(R8), Z17
	VBROADCASTSS 8(R8), Z18
	VBROADCASTSS 12(R8), Z19
	VBROADCASTSS 16(R8), Z20
	VBROADCASTSS 20(R8), Z21
	VBROADCASTSS 24(R8), Z22
	VBROADCASTSS 28(R8), Z23
	VBROADCASTSS 32(R8), Z24
	VBROADCASTSS 36(R8), Z25
	VBROADCASTSS 40(R8), Z26
	VBROADCASTSS 44(R8), Z27
	VBROADCASTSS 48(R8), Z28
	VBROADCASTSS 52(R8), Z29
	VBROADCASTSS 56(R8), Z30
	VBROADCASTSS 60(R8), Z31

	CMPQ CX, $16
	JL   m44zf_rem

m44zf_loop:
	VMOVUPS (DI), Z0
	VMOVUPS (DI)(DX*1), Z1
	VMOVUPS (R9), Z2
	VMOVUPS (R9)(DX*1), Z3
	M44_SUM_Z(VMULPS, VADDPS, Z16, Z17, Z18, Z19)
	VMOVUPS (SI), Z6
	VADDPS  Z4, Z6, Z6
	VMOVUPS Z6, (SI)
	M44_SUM_Z(VMULPS, VADDPS, Z20, Z21, Z22, Z23)
	VMOVUPS (SI)(DX*1), Z6
	VADDPS  Z4, Z6, Z6
	VMOVUPS Z6, (SI)(DX*1)
	M44_SUM_Z(VMULPS, VADDPS, Z24, Z25, Z26, Z27)
	VMOVUPS (R10), Z6
	VADDPS  Z4, Z6, Z6
	VMOVUPS Z6, (R10)
	M44_SUM_Z(VMULPS, VADDPS, Z28, Z29, Z30, Z31)
	VMOVUPS (R10)(DX*1), Z6
	VADDPS  Z4, Z6, Z6
	VMOVUPS Z6, (R10)(DX*1)
	ADDQ    $64, SI
	ADDQ    $64, DI
	ADDQ    $64, R9
	ADDQ    $64, R10
	SUBQ    $16, CX
	CMPQ    CX, $16
	JGE     m44zf_loop

m44zf_rem:
	TESTQ CX, CX
	JZ    m44zf_done
	MOVQ  $1, AX
	SHLQ  CX, AX
	DECQ  AX
	KMOVW AX, K1             // K1 = the n%16 live lanes

	VMOVUPS.Z (DI), K1, Z0
	VMOVUPS.Z (DI)(DX*1), K1, Z1
	VMOVUPS.Z (R9), K1, Z2
	VMOVUPS.Z (R9)(DX*1), K1, Z3
	M44_SUM_Z(VMULPS, VADDPS, Z16, Z17, Z18, Z19)
	VMOVUPS.Z (SI), K1, Z6
	VADDPS    Z4, Z6, Z6
	VMOVUPS   Z6, K1, (SI)
	M44_SUM_Z(VMULPS, VADDPS, Z20, Z21, Z22, Z23)
	VMOVUPS.Z (SI)(DX*1), K1, Z6
	VADDPS    Z4, Z6, Z6
	VMOVUPS   Z6, K1, (SI)(DX*1)
	M44_SUM_Z(VMULPS, VADDPS, Z24, Z25, Z26, Z27)
	VMOVUPS.Z (R10), K1, Z6
	VADDPS    Z4, Z6, Z6
	VMOVUPS   Z6, K1, (R10)
	M44_SUM_Z(VMULPS, VADDPS, Z28, Z29, Z30, Z31)
	VMOVUPS.Z (R10)(DX*1), K1, Z6
	VADDPS    Z4, Z6, Z6
	VMOVUPS   Z6, K1, (R10)(DX*1)

m44zf_done:
	VZEROUPPER
	RET
