// Code generated by iatf-asm -op trmm-amd64 from the ktmpl TRMM templates; DO NOT EDIT.

//go:build !purego

#include "textflag.h"

// func trmmTri1s(pa, b *float32, ncols, rs, cs int)
TEXT ·trmmTri1s(SB), NOSPLIT, $0-40
	MOVQ pa+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ ncols+16(FP), CX
	MOVQ rs+24(FP), R9
	SHLQ $4, R9
	LEAQ (R9)(R9*2), R10
	MOVQ cs+32(FP), R8
	SHLQ $4, R8
	// ldr q2, [pA]
	MOVUPS (SI), X0
	TESTQ CX, CX
	JEQ done
loop:
	// fmul v0.4s, v0.4s, v2.4s
	MOVUPS (DI), X1
	MULPS X0, X1
	// str q0, [pB]
	MOVUPS X1, (DI)
	ADDQ R8, DI
	DECQ CX
	JNE loop
done:
	RET

// func trmmTri2s(pa, b *float32, ncols, rs, cs int)
TEXT ·trmmTri2s(SB), NOSPLIT, $0-40
	MOVQ pa+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ ncols+16(FP), CX
	MOVQ rs+24(FP), R9
	SHLQ $4, R9
	LEAQ (R9)(R9*2), R10
	MOVQ cs+32(FP), R8
	SHLQ $4, R8
	// ldp q4, q5, [pA]
	MOVUPS (SI), X0
	MOVUPS 16(SI), X1
	// ldr q6, [pA, #32]
	MOVUPS 32(SI), X2
	TESTQ CX, CX
	JEQ done
loop:
	// fmul v1.4s, v1.4s, v6.4s
	MOVUPS (DI)(R9*1), X4
	MULPS X2, X4
	// fmla v1.4s, v5.4s, v0.4s
	MOVUPS (DI), X3
	MOVAPS X1, X15
	MULPS X3, X15
	ADDPS X15, X4
	// fmul v0.4s, v0.4s, v4.4s
	MULPS X0, X3
	// stp q0, q1, [pB]
	MOVUPS X3, (DI)
	MOVUPS X4, (DI)(R9*1)
	ADDQ R8, DI
	DECQ CX
	JNE loop
done:
	RET

// func trmmTri3s(pa, b *float32, ncols, rs, cs int)
TEXT ·trmmTri3s(SB), NOSPLIT, $0-40
	MOVQ pa+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ ncols+16(FP), CX
	MOVQ rs+24(FP), R9
	SHLQ $4, R9
	LEAQ (R9)(R9*2), R10
	MOVQ cs+32(FP), R8
	SHLQ $4, R8
	// ldp q6, q7, [pA]
	MOVUPS (SI), X0
	MOVUPS 16(SI), X1
	// ldp q8, q9, [pA, #32]
	MOVUPS 32(SI), X2
	MOVUPS 48(SI), X3
	// ldp q10, q11, [pA, #64]
	MOVUPS 64(SI), X4
	MOVUPS 80(SI), X5
	TESTQ CX, CX
	JEQ done
loop:
	// fmul v2.4s, v2.4s, v11.4s
	MOVUPS (DI)(R9*2), X8
	MULPS X5, X8
	// fmla v2.4s, v9.4s, v0.4s
	MOVUPS (DI), X6
	MOVAPS X3, X15
	MULPS X6, X15
	ADDPS X15, X8
	// fmla v2.4s, v10.4s, v1.4s
	MOVUPS (DI)(R9*1), X7
	MOVAPS X4, X15
	MULPS X7, X15
	ADDPS X15, X8
	// fmul v1.4s, v1.4s, v8.4s
	MULPS X2, X7
	// fmla v1.4s, v7.4s, v0.4s
	MOVAPS X1, X15
	MULPS X6, X15
	ADDPS X15, X7
	// fmul v0.4s, v0.4s, v6.4s
	MULPS X0, X6
	// stp q0, q1, [pB]
	MOVUPS X6, (DI)
	MOVUPS X7, (DI)(R9*1)
	// str q2, [pB, #32]
	MOVUPS X8, (DI)(R9*2)
	ADDQ R8, DI
	DECQ CX
	JNE loop
done:
	RET

// func trmmTri4s(pa, b *float32, ncols, rs, cs int)
TEXT ·trmmTri4s(SB), NOSPLIT, $0-40
	MOVQ pa+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ ncols+16(FP), CX
	MOVQ rs+24(FP), R9
	SHLQ $4, R9
	LEAQ (R9)(R9*2), R10
	MOVQ cs+32(FP), R8
	SHLQ $4, R8
	// ldp q8, q9, [pA]
	MOVUPS (SI), X0
	MOVUPS 16(SI), X1
	// ldp q10, q11, [pA, #32]
	MOVUPS 32(SI), X2
	MOVUPS 48(SI), X3
	// ldp q12, q13, [pA, #64]
	MOVUPS 64(SI), X4
	MOVUPS 80(SI), X5
	// ldp q14, q15, [pA, #96]
	MOVUPS 96(SI), X6
	MOVUPS 112(SI), X7
	// ldp q16, q17, [pA, #128]
	MOVUPS 128(SI), X8
	MOVUPS 144(SI), X9
	TESTQ CX, CX
	JEQ done
loop:
	// fmul v3.4s, v3.4s, v17.4s
	MOVUPS (DI)(R10*1), X13
	MULPS X9, X13
	// fmla v3.4s, v14.4s, v0.4s
	MOVUPS (DI), X10
	MOVAPS X6, X15
	MULPS X10, X15
	ADDPS X15, X13
	// fmla v3.4s, v15.4s, v1.4s
	MOVUPS (DI)(R9*1), X11
	MOVAPS X7, X15
	MULPS X11, X15
	ADDPS X15, X13
	// fmla v3.4s, v16.4s, v2.4s
	MOVUPS (DI)(R9*2), X12
	MOVAPS X8, X15
	MULPS X12, X15
	ADDPS X15, X13
	// fmul v2.4s, v2.4s, v13.4s
	MULPS X5, X12
	// fmla v2.4s, v11.4s, v0.4s
	MOVAPS X3, X15
	MULPS X10, X15
	ADDPS X15, X12
	// fmla v2.4s, v12.4s, v1.4s
	MOVAPS X4, X15
	MULPS X11, X15
	ADDPS X15, X12
	// fmul v1.4s, v1.4s, v10.4s
	MULPS X2, X11
	// fmla v1.4s, v9.4s, v0.4s
	MOVAPS X1, X15
	MULPS X10, X15
	ADDPS X15, X11
	// fmul v0.4s, v0.4s, v8.4s
	MULPS X0, X10
	// stp q0, q1, [pB]
	MOVUPS X10, (DI)
	MOVUPS X11, (DI)(R9*1)
	// stp q2, q3, [pB, #32]
	MOVUPS X12, (DI)(R9*2)
	MOVUPS X13, (DI)(R10*1)
	ADDQ R8, DI
	DECQ CX
	JNE loop
done:
	RET

// func trmmRect4x4s(pa, x, c *float32, k, rs, ldx, ldc int)
TEXT ·trmmRect4x4s(SB), NOSPLIT, $0-56
	MOVQ c+16(FP), DX
	MOVQ rs+32(FP), R12
	SHLQ $4, R12
	LEAQ (R12)(R12*2), R13
	MOVQ ldc+48(FP), R8
	SHLQ $4, R8
	LEAQ (DX)(R8*2), R9
	LEAQ (R9)(R8*1), BX
	ADDQ DX, R8
	MOVQ ldx+40(FP), R10
	SHLQ $4, R10
	LEAQ (R10)(R10*2), R11
	MOVQ pa+0(FP), SI
	MOVQ x+8(FP), DI
	MOVQ k+24(FP), CX
	// ldp q16, q17, [pC]
	MOVUPS (DX), X8
	MOVUPS (DX)(R12*1), X9
	// ldp q18, q19, [pC, #32]
	MOVUPS (DX)(R12*2), X10
	MOVUPS (DX)(R13*1), X11
	// ldp q20, q21, [pC, #64]
	MOVUPS (R8), X12
	MOVUPS (R8)(R12*1), X13
	// ldp q22, q23, [pC, #96]
	MOVUPS (R8)(R12*2), X14
	MOVUPS (R8)(R13*1), X15
	TESTQ CX, CX
	JEQ save0
loop0:
	// fmla v16.4s, v0.4s, v8.4s
	MOVUPS (SI), X0
	MOVUPS (DI), X6
	MOVAPS X0, X7
	MULPS X6, X7
	ADDPS X7, X8
	// fmla v17.4s, v1.4s, v8.4s
	MOVUPS 16(SI), X1
	MOVAPS X1, X7
	MULPS X6, X7
	ADDPS X7, X9
	// fmla v18.4s, v2.4s, v8.4s
	MOVUPS 32(SI), X2
	MOVAPS X2, X7
	MULPS X6, X7
	ADDPS X7, X10
	// fmla v19.4s, v3.4s, v8.4s
	MOVUPS 48(SI), X3
	MOVAPS X3, X7
	MULPS X6, X7
	ADDPS X7, X11
	// fmla v20.4s, v0.4s, v9.4s
	MOVUPS (DI)(R10*1), X6
	MOVAPS X0, X7
	MULPS X6, X7
	ADDPS X7, X12
	// fmla v21.4s, v1.4s, v9.4s
	MOVAPS X1, X7
	MULPS X6, X7
	ADDPS X7, X13
	// fmla v22.4s, v2.4s, v9.4s
	MOVAPS X2, X7
	MULPS X6, X7
	ADDPS X7, X14
	// fmla v23.4s, v3.4s, v9.4s
	MOVAPS X3, X7
	MULPS X6, X7
	ADDPS X7, X15
	ADDQ $64, SI
	ADDQ R12, DI
	DECQ CX
	JNE loop0
save0:
	// stp q16, q17, [pC]
	MOVUPS X8, (DX)
	MOVUPS X9, (DX)(R12*1)
	// stp q18, q19, [pC, #32]
	MOVUPS X10, (DX)(R12*2)
	MOVUPS X11, (DX)(R13*1)
	// stp q20, q21, [pC, #64]
	MOVUPS X12, (R8)
	MOVUPS X13, (R8)(R12*1)
	// stp q22, q23, [pC, #96]
	MOVUPS X14, (R8)(R12*2)
	MOVUPS X15, (R8)(R13*1)
	MOVQ pa+0(FP), SI
	MOVQ x+8(FP), DI
	MOVQ k+24(FP), CX
	// ldp q24, q25, [pC, #128]
	MOVUPS (R9), X8
	MOVUPS (R9)(R12*1), X9
	// ldp q26, q27, [pC, #160]
	MOVUPS (R9)(R12*2), X10
	MOVUPS (R9)(R13*1), X11
	// ldp q28, q29, [pC, #192]
	MOVUPS (BX), X12
	MOVUPS (BX)(R12*1), X13
	// ldp q30, q31, [pC, #224]
	MOVUPS (BX)(R12*2), X14
	MOVUPS (BX)(R13*1), X15
	TESTQ CX, CX
	JEQ save1
loop1:
	// fmla v24.4s, v0.4s, v10.4s
	MOVUPS (SI), X0
	MOVUPS (DI)(R10*2), X6
	MOVAPS X0, X7
	MULPS X6, X7
	ADDPS X7, X8
	// fmla v25.4s, v1.4s, v10.4s
	MOVUPS 16(SI), X1
	MOVAPS X1, X7
	MULPS X6, X7
	ADDPS X7, X9
	// fmla v26.4s, v2.4s, v10.4s
	MOVUPS 32(SI), X2
	MOVAPS X2, X7
	MULPS X6, X7
	ADDPS X7, X10
	// fmla v27.4s, v3.4s, v10.4s
	MOVUPS 48(SI), X3
	MOVAPS X3, X7
	MULPS X6, X7
	ADDPS X7, X11
	// fmla v28.4s, v0.4s, v11.4s
	MOVUPS (DI)(R11*1), X6
	MOVAPS X0, X7
	MULPS X6, X7
	ADDPS X7, X12
	// fmla v29.4s, v1.4s, v11.4s
	MOVAPS X1, X7
	MULPS X6, X7
	ADDPS X7, X13
	// fmla v30.4s, v2.4s, v11.4s
	MOVAPS X2, X7
	MULPS X6, X7
	ADDPS X7, X14
	// fmla v31.4s, v3.4s, v11.4s
	MOVAPS X3, X7
	MULPS X6, X7
	ADDPS X7, X15
	ADDQ $64, SI
	ADDQ R12, DI
	DECQ CX
	JNE loop1
save1:
	// stp q24, q25, [pC, #128]
	MOVUPS X8, (R9)
	MOVUPS X9, (R9)(R12*1)
	// stp q26, q27, [pC, #160]
	MOVUPS X10, (R9)(R12*2)
	MOVUPS X11, (R9)(R13*1)
	// stp q28, q29, [pC, #192]
	MOVUPS X12, (BX)
	MOVUPS X13, (BX)(R12*1)
	// stp q30, q31, [pC, #224]
	MOVUPS X14, (BX)(R12*2)
	MOVUPS X15, (BX)(R13*1)
	RET

// func trmmTri1d(pa, b *float64, ncols, rs, cs int)
TEXT ·trmmTri1d(SB), NOSPLIT, $0-40
	MOVQ pa+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ ncols+16(FP), CX
	MOVQ rs+24(FP), R9
	SHLQ $4, R9
	LEAQ (R9)(R9*2), R10
	MOVQ cs+32(FP), R8
	SHLQ $4, R8
	// ldr q2, [pA]
	MOVUPD (SI), X0
	TESTQ CX, CX
	JEQ done
loop:
	// fmul v0.2d, v0.2d, v2.2d
	MOVUPD (DI), X1
	MULPD X0, X1
	// str q0, [pB]
	MOVUPD X1, (DI)
	ADDQ R8, DI
	DECQ CX
	JNE loop
done:
	RET

// func trmmTri2d(pa, b *float64, ncols, rs, cs int)
TEXT ·trmmTri2d(SB), NOSPLIT, $0-40
	MOVQ pa+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ ncols+16(FP), CX
	MOVQ rs+24(FP), R9
	SHLQ $4, R9
	LEAQ (R9)(R9*2), R10
	MOVQ cs+32(FP), R8
	SHLQ $4, R8
	// ldp q4, q5, [pA]
	MOVUPD (SI), X0
	MOVUPD 16(SI), X1
	// ldr q6, [pA, #32]
	MOVUPD 32(SI), X2
	TESTQ CX, CX
	JEQ done
loop:
	// fmul v1.2d, v1.2d, v6.2d
	MOVUPD (DI)(R9*1), X4
	MULPD X2, X4
	// fmla v1.2d, v5.2d, v0.2d
	MOVUPD (DI), X3
	MOVAPD X1, X15
	MULPD X3, X15
	ADDPD X15, X4
	// fmul v0.2d, v0.2d, v4.2d
	MULPD X0, X3
	// stp q0, q1, [pB]
	MOVUPD X3, (DI)
	MOVUPD X4, (DI)(R9*1)
	ADDQ R8, DI
	DECQ CX
	JNE loop
done:
	RET

// func trmmTri3d(pa, b *float64, ncols, rs, cs int)
TEXT ·trmmTri3d(SB), NOSPLIT, $0-40
	MOVQ pa+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ ncols+16(FP), CX
	MOVQ rs+24(FP), R9
	SHLQ $4, R9
	LEAQ (R9)(R9*2), R10
	MOVQ cs+32(FP), R8
	SHLQ $4, R8
	// ldp q6, q7, [pA]
	MOVUPD (SI), X0
	MOVUPD 16(SI), X1
	// ldp q8, q9, [pA, #32]
	MOVUPD 32(SI), X2
	MOVUPD 48(SI), X3
	// ldp q10, q11, [pA, #64]
	MOVUPD 64(SI), X4
	MOVUPD 80(SI), X5
	TESTQ CX, CX
	JEQ done
loop:
	// fmul v2.2d, v2.2d, v11.2d
	MOVUPD (DI)(R9*2), X8
	MULPD X5, X8
	// fmla v2.2d, v9.2d, v0.2d
	MOVUPD (DI), X6
	MOVAPD X3, X15
	MULPD X6, X15
	ADDPD X15, X8
	// fmla v2.2d, v10.2d, v1.2d
	MOVUPD (DI)(R9*1), X7
	MOVAPD X4, X15
	MULPD X7, X15
	ADDPD X15, X8
	// fmul v1.2d, v1.2d, v8.2d
	MULPD X2, X7
	// fmla v1.2d, v7.2d, v0.2d
	MOVAPD X1, X15
	MULPD X6, X15
	ADDPD X15, X7
	// fmul v0.2d, v0.2d, v6.2d
	MULPD X0, X6
	// stp q0, q1, [pB]
	MOVUPD X6, (DI)
	MOVUPD X7, (DI)(R9*1)
	// str q2, [pB, #32]
	MOVUPD X8, (DI)(R9*2)
	ADDQ R8, DI
	DECQ CX
	JNE loop
done:
	RET

// func trmmTri4d(pa, b *float64, ncols, rs, cs int)
TEXT ·trmmTri4d(SB), NOSPLIT, $0-40
	MOVQ pa+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ ncols+16(FP), CX
	MOVQ rs+24(FP), R9
	SHLQ $4, R9
	LEAQ (R9)(R9*2), R10
	MOVQ cs+32(FP), R8
	SHLQ $4, R8
	// ldp q8, q9, [pA]
	MOVUPD (SI), X0
	MOVUPD 16(SI), X1
	// ldp q10, q11, [pA, #32]
	MOVUPD 32(SI), X2
	MOVUPD 48(SI), X3
	// ldp q12, q13, [pA, #64]
	MOVUPD 64(SI), X4
	MOVUPD 80(SI), X5
	// ldp q14, q15, [pA, #96]
	MOVUPD 96(SI), X6
	MOVUPD 112(SI), X7
	// ldp q16, q17, [pA, #128]
	MOVUPD 128(SI), X8
	MOVUPD 144(SI), X9
	TESTQ CX, CX
	JEQ done
loop:
	// fmul v3.2d, v3.2d, v17.2d
	MOVUPD (DI)(R10*1), X13
	MULPD X9, X13
	// fmla v3.2d, v14.2d, v0.2d
	MOVUPD (DI), X10
	MOVAPD X6, X15
	MULPD X10, X15
	ADDPD X15, X13
	// fmla v3.2d, v15.2d, v1.2d
	MOVUPD (DI)(R9*1), X11
	MOVAPD X7, X15
	MULPD X11, X15
	ADDPD X15, X13
	// fmla v3.2d, v16.2d, v2.2d
	MOVUPD (DI)(R9*2), X12
	MOVAPD X8, X15
	MULPD X12, X15
	ADDPD X15, X13
	// fmul v2.2d, v2.2d, v13.2d
	MULPD X5, X12
	// fmla v2.2d, v11.2d, v0.2d
	MOVAPD X3, X15
	MULPD X10, X15
	ADDPD X15, X12
	// fmla v2.2d, v12.2d, v1.2d
	MOVAPD X4, X15
	MULPD X11, X15
	ADDPD X15, X12
	// fmul v1.2d, v1.2d, v10.2d
	MULPD X2, X11
	// fmla v1.2d, v9.2d, v0.2d
	MOVAPD X1, X15
	MULPD X10, X15
	ADDPD X15, X11
	// fmul v0.2d, v0.2d, v8.2d
	MULPD X0, X10
	// stp q0, q1, [pB]
	MOVUPD X10, (DI)
	MOVUPD X11, (DI)(R9*1)
	// stp q2, q3, [pB, #32]
	MOVUPD X12, (DI)(R9*2)
	MOVUPD X13, (DI)(R10*1)
	ADDQ R8, DI
	DECQ CX
	JNE loop
done:
	RET

// func trmmRect4x4d(pa, x, c *float64, k, rs, ldx, ldc int)
TEXT ·trmmRect4x4d(SB), NOSPLIT, $0-56
	MOVQ c+16(FP), DX
	MOVQ rs+32(FP), R12
	SHLQ $4, R12
	LEAQ (R12)(R12*2), R13
	MOVQ ldc+48(FP), R8
	SHLQ $4, R8
	LEAQ (DX)(R8*2), R9
	LEAQ (R9)(R8*1), BX
	ADDQ DX, R8
	MOVQ ldx+40(FP), R10
	SHLQ $4, R10
	LEAQ (R10)(R10*2), R11
	MOVQ pa+0(FP), SI
	MOVQ x+8(FP), DI
	MOVQ k+24(FP), CX
	// ldp q16, q17, [pC]
	MOVUPD (DX), X8
	MOVUPD (DX)(R12*1), X9
	// ldp q18, q19, [pC, #32]
	MOVUPD (DX)(R12*2), X10
	MOVUPD (DX)(R13*1), X11
	// ldp q20, q21, [pC, #64]
	MOVUPD (R8), X12
	MOVUPD (R8)(R12*1), X13
	// ldp q22, q23, [pC, #96]
	MOVUPD (R8)(R12*2), X14
	MOVUPD (R8)(R13*1), X15
	TESTQ CX, CX
	JEQ save0
loop0:
	// fmla v16.2d, v0.2d, v8.2d
	MOVUPD (SI), X0
	MOVUPD (DI), X6
	MOVAPD X0, X7
	MULPD X6, X7
	ADDPD X7, X8
	// fmla v17.2d, v1.2d, v8.2d
	MOVUPD 16(SI), X1
	MOVAPD X1, X7
	MULPD X6, X7
	ADDPD X7, X9
	// fmla v18.2d, v2.2d, v8.2d
	MOVUPD 32(SI), X2
	MOVAPD X2, X7
	MULPD X6, X7
	ADDPD X7, X10
	// fmla v19.2d, v3.2d, v8.2d
	MOVUPD 48(SI), X3
	MOVAPD X3, X7
	MULPD X6, X7
	ADDPD X7, X11
	// fmla v20.2d, v0.2d, v9.2d
	MOVUPD (DI)(R10*1), X6
	MOVAPD X0, X7
	MULPD X6, X7
	ADDPD X7, X12
	// fmla v21.2d, v1.2d, v9.2d
	MOVAPD X1, X7
	MULPD X6, X7
	ADDPD X7, X13
	// fmla v22.2d, v2.2d, v9.2d
	MOVAPD X2, X7
	MULPD X6, X7
	ADDPD X7, X14
	// fmla v23.2d, v3.2d, v9.2d
	MOVAPD X3, X7
	MULPD X6, X7
	ADDPD X7, X15
	ADDQ $64, SI
	ADDQ R12, DI
	DECQ CX
	JNE loop0
save0:
	// stp q16, q17, [pC]
	MOVUPD X8, (DX)
	MOVUPD X9, (DX)(R12*1)
	// stp q18, q19, [pC, #32]
	MOVUPD X10, (DX)(R12*2)
	MOVUPD X11, (DX)(R13*1)
	// stp q20, q21, [pC, #64]
	MOVUPD X12, (R8)
	MOVUPD X13, (R8)(R12*1)
	// stp q22, q23, [pC, #96]
	MOVUPD X14, (R8)(R12*2)
	MOVUPD X15, (R8)(R13*1)
	MOVQ pa+0(FP), SI
	MOVQ x+8(FP), DI
	MOVQ k+24(FP), CX
	// ldp q24, q25, [pC, #128]
	MOVUPD (R9), X8
	MOVUPD (R9)(R12*1), X9
	// ldp q26, q27, [pC, #160]
	MOVUPD (R9)(R12*2), X10
	MOVUPD (R9)(R13*1), X11
	// ldp q28, q29, [pC, #192]
	MOVUPD (BX), X12
	MOVUPD (BX)(R12*1), X13
	// ldp q30, q31, [pC, #224]
	MOVUPD (BX)(R12*2), X14
	MOVUPD (BX)(R13*1), X15
	TESTQ CX, CX
	JEQ save1
loop1:
	// fmla v24.2d, v0.2d, v10.2d
	MOVUPD (SI), X0
	MOVUPD (DI)(R10*2), X6
	MOVAPD X0, X7
	MULPD X6, X7
	ADDPD X7, X8
	// fmla v25.2d, v1.2d, v10.2d
	MOVUPD 16(SI), X1
	MOVAPD X1, X7
	MULPD X6, X7
	ADDPD X7, X9
	// fmla v26.2d, v2.2d, v10.2d
	MOVUPD 32(SI), X2
	MOVAPD X2, X7
	MULPD X6, X7
	ADDPD X7, X10
	// fmla v27.2d, v3.2d, v10.2d
	MOVUPD 48(SI), X3
	MOVAPD X3, X7
	MULPD X6, X7
	ADDPD X7, X11
	// fmla v28.2d, v0.2d, v11.2d
	MOVUPD (DI)(R11*1), X6
	MOVAPD X0, X7
	MULPD X6, X7
	ADDPD X7, X12
	// fmla v29.2d, v1.2d, v11.2d
	MOVAPD X1, X7
	MULPD X6, X7
	ADDPD X7, X13
	// fmla v30.2d, v2.2d, v11.2d
	MOVAPD X2, X7
	MULPD X6, X7
	ADDPD X7, X14
	// fmla v31.2d, v3.2d, v11.2d
	MOVAPD X3, X7
	MULPD X6, X7
	ADDPD X7, X15
	ADDQ $64, SI
	ADDQ R12, DI
	DECQ CX
	JNE loop1
save1:
	// stp q24, q25, [pC, #128]
	MOVUPD X8, (R9)
	MOVUPD X9, (R9)(R12*1)
	// stp q26, q27, [pC, #160]
	MOVUPD X10, (R9)(R12*2)
	MOVUPD X11, (R9)(R13*1)
	// stp q28, q29, [pC, #192]
	MOVUPD X12, (BX)
	MOVUPD X13, (BX)(R12*1)
	// stp q30, q31, [pC, #224]
	MOVUPD X14, (BX)(R12*2)
	MOVUPD X15, (BX)(R13*1)
	RET
