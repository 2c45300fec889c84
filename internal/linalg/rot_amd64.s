#include "textflag.h"

// func rotAVX2(x, y []float64, c, s float64)
//
// x[i], y[i] = c*x[i]-s*y[i], s*x[i]+c*y[i], eight entries per
// iteration in two independent groups of four, then one at a time.
// Every product is rounded before the subtract or add that uses it,
// with the operands in the order the scalar expression has them.
TEXT ·rotAVX2(SB), NOSPLIT, $0-64
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ y_base+24(FP), DI
	VBROADCASTSD c+48(FP), Y0
	VBROADCASTSD s+56(FP), Y1
	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-8, DX
	JZ   quad

loop8:
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (DI)(AX*8), Y3
	VMOVUPD 32(SI)(AX*8), Y8
	VMOVUPD 32(DI)(AX*8), Y9
	VMULPD  Y2, Y0, Y4
	VMULPD  Y3, Y1, Y5
	VMULPD  Y2, Y1, Y6
	VMULPD  Y3, Y0, Y7
	VMULPD  Y8, Y0, Y10
	VMULPD  Y9, Y1, Y11
	VMULPD  Y8, Y1, Y12
	VMULPD  Y9, Y0, Y13
	VSUBPD  Y5, Y4, Y4
	VADDPD  Y7, Y6, Y6
	VSUBPD  Y11, Y10, Y10
	VADDPD  Y13, Y12, Y12
	VMOVUPD Y4, (SI)(AX*8)
	VMOVUPD Y6, (DI)(AX*8)
	VMOVUPD Y10, 32(SI)(AX*8)
	VMOVUPD Y12, 32(DI)(AX*8)
	ADDQ    $8, AX
	CMPQ    AX, DX
	JLT     loop8

quad:
	MOVQ CX, DX
	SUBQ AX, DX
	CMPQ DX, $4
	JLT  tail
	VMOVUPD (SI)(AX*8), Y2
	VMOVUPD (DI)(AX*8), Y3
	VMULPD  Y2, Y0, Y4
	VMULPD  Y3, Y1, Y5
	VMULPD  Y2, Y1, Y6
	VMULPD  Y3, Y0, Y7
	VSUBPD  Y5, Y4, Y4
	VADDPD  Y7, Y6, Y6
	VMOVUPD Y4, (SI)(AX*8)
	VMOVUPD Y6, (DI)(AX*8)
	ADDQ    $4, AX

tail:
	CMPQ   AX, CX
	JGE    done
	VMOVSD (SI)(AX*8), X2
	VMOVSD (DI)(AX*8), X3
	VMULSD X2, X0, X4
	VMULSD X3, X1, X5
	VMULSD X2, X1, X6
	VMULSD X3, X0, X7
	VSUBSD X5, X4, X4
	VADDSD X7, X6, X6
	VMOVSD X4, (SI)(AX*8)
	VMOVSD X6, (DI)(AX*8)
	INCQ   AX
	JMP    tail

done:
	VZEROUPPER
	RET

// func chain4AVX2(rows []float64, k, p int, steps []step) (ok bool)
//
// For the four rows of length k at rows, lane t of Y8 is row t's x =
// rows[t][p]; each step (q, c, s) gathers y = rows[t][q] into Y2,
// makes x, rows[t][q] = c*x-s*y, s*x+c*y with each operation's
// operands in the order the compiled chain4Go has them (the sum as
// c*y+s*x), so that even NaN payloads match, and scatters the second
// back; x is written back after the
// last step. A step is 24 bytes: q at 0, c at 8, s at 16. A q not below
// k stops the kernel with ok false before it touches that column.
TEXT ·chain4AVX2(SB), NOSPLIT, $0-65
	MOVQ steps_base+40(FP), SI
	MOVQ steps_len+48(FP), CX
	MOVQ rows_base+0(FP), R8
	MOVQ k+24(FP), R12
	LEAQ (R8)(R12*8), R9
	LEAQ (R9)(R12*8), R10
	LEAQ (R10)(R12*8), R11
	MOVQ p+32(FP), DX
	VMOVSD      (R8)(DX*8), X8
	VMOVHPD     (R9)(DX*8), X8, X8
	VMOVSD      (R10)(DX*8), X9
	VMOVHPD     (R11)(DX*8), X9, X9
	VINSERTF128 $1, X9, Y8, Y8
	MOVB        $1, ok+64(FP)
	TESTQ       CX, CX
	JZ          chaindone

chainstep:
	MOVQ         (SI), BX
	CMPQ         BX, R12
	JAE          chainbad
	VBROADCASTSD 8(SI), Y0
	VBROADCASTSD 16(SI), Y1
	VMOVSD       (R8)(BX*8), X2
	VMOVHPD      (R9)(BX*8), X2, X2
	VMOVSD       (R10)(BX*8), X3
	VMOVHPD      (R11)(BX*8), X3, X3
	VINSERTF128  $1, X3, Y2, Y2
	VMULPD       Y0, Y8, Y4
	VMULPD       Y2, Y1, Y5
	VMULPD       Y1, Y8, Y6
	VMULPD       Y0, Y2, Y7
	VSUBPD       Y5, Y4, Y8
	VADDPD       Y6, Y7, Y6
	VMOVSD       X6, (R8)(BX*8)
	VMOVHPD      X6, (R9)(BX*8)
	VEXTRACTF128 $1, Y6, X7
	VMOVSD       X7, (R10)(BX*8)
	VMOVHPD      X7, (R11)(BX*8)
	ADDQ         $24, SI
	DECQ         CX
	JNZ          chainstep

chaindone:
	VMOVSD       X8, (R8)(DX*8)
	VMOVHPD      X8, (R9)(DX*8)
	VEXTRACTF128 $1, Y8, X9
	VMOVSD       X9, (R10)(DX*8)
	VMOVHPD      X9, (R11)(DX*8)
	VZEROUPPER
	RET

chainbad:
	MOVB $0, ok+64(FP)
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
