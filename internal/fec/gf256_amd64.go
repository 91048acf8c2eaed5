//go:build !purego

package fec

// avx2Supported reports whether this CPU runs the AVX2 row kernel in
// gf256_amd64.s: CPUID leaf 7 advertises AVX2, and the OS saves the YMM
// registers across context switches (OSXSAVE set, XCR0 bits 1 and 2).
var avx2Supported = cpuHasAVX2()

func cpuHasAVX2() bool {
	const (
		osxsave   = 1 << 27 // CPUID.1:ECX
		avx       = 1 << 28 // CPUID.1:ECX
		avx2      = 1 << 5  // CPUID.(7,0):EBX
		xmmYmmXCR = 1<<1 | 1<<2
	)
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&xmmYmmXCR != xmmYmmXCR {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&avx2 != 0
}

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// addMulRowsAVX2 writes all of dst and needs len(dst) >= 32 and at
// least one source. See gf256_amd64.s.

//go:noescape
func addMulRowsAVX2(tbl *[fieldSize][32]byte, dst []byte, srcs [][]byte, coeffs []byte)
