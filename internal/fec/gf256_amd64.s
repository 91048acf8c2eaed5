//go:build !purego

#include "textflag.h"

// AVX2 GF(2^8) row kernel using the split-nibble VPSHUFB method: a
// product c·x is c·(x&0x0f) ^ c·(x>>4<<4), and each half is a 16-entry
// lookup done 32 bytes at a time by VPSHUFB. The row gfNibble[c] holds
// the two lookups: bytes 0–15 are c·x, bytes 16–31 are c·(x<<4).
//
// Only VEX-encoded instructions touch vector registers (a legacy-SSE
// instruction after a 256-bit one costs a state transition), and the
// kernel ends with VZEROUPPER.

DATA nibbleMask<>+0(SB)/1, $0x0f
GLOBL nibbleMask<>(SB), RODATA|NOPTR, $1

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

// func addMulRowsAVX2(tbl *[fieldSize][32]byte, dst []byte, srcs [][]byte, coeffs []byte)
//
// dst[i] = Σ_j coeffs[j]·srcs[j][i] for every i < len(dst), reading
// len(coeffs) sources. Requires len(dst) >= 32 and len(coeffs) >= 1. The
// row runs in 32-byte chunks with the accumulator Y0 held across all
// sources, so each chunk of dst is written once. A partial last chunk is
// moved back to end at len(dst), recomputing a few bytes with the same
// result, so there is no byte tail.
TEXT ·addMulRowsAVX2(SB), NOSPLIT, $0-80
	MOVQ tbl+0(FP), AX
	MOVQ dst_base+8(FP), DI
	MOVQ dst_len+16(FP), CX
	MOVQ srcs_base+32(FP), SI
	MOVQ coeffs_base+56(FP), R9
	MOVQ coeffs_len+64(FP), R8
	VPBROADCASTB nibbleMask<>(SB), Y7
	XORQ DX, DX  // offset of the current chunk
	SUBQ $32, CX // CX = len(dst)-32, the offset of the last chunk

rows_chunk:
	VPXOR Y0, Y0, Y0
	MOVQ  SI, R10 // &srcs[j]
	MOVQ  R9, R11 // &coeffs[j]
	MOVQ  R8, R12 // sources left

rows_source:
	MOVBQZX        (R11), BX
	SHLQ           $5, BX
	VBROADCASTI128 (AX)(BX*1), Y1
	VBROADCASTI128 16(AX)(BX*1), Y2
	MOVQ           (R10), R13
	VMOVDQU        (R13)(DX*1), Y3
	VPSRLQ         $4, Y3, Y4
	VPAND          Y7, Y3, Y3
	VPAND          Y7, Y4, Y4
	VPSHUFB        Y3, Y1, Y3
	VPSHUFB        Y4, Y2, Y4
	VPXOR          Y3, Y0, Y0
	VPXOR          Y4, Y0, Y0
	ADDQ           $24, R10
	INCQ           R11
	DECQ           R12
	JNZ            rows_source

	VMOVDQU Y0, (DI)(DX*1)
	CMPQ    DX, CX
	JGE     rows_done // that was the last chunk
	ADDQ    $32, DX
	CMPQ    DX, CX
	JLE     rows_chunk
	MOVQ    CX, DX // partial last chunk: end it at len(dst) instead
	JMP     rows_chunk

rows_done:
	VZEROUPPER
	RET
