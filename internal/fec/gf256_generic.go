//go:build !amd64 || purego

package fec

// Without the amd64 assembly the table-driven kernels are the only path.
const avx2Supported = false

func addMulRowsAVX2(*[fieldSize][32]byte, []byte, [][]byte, []byte) {
	panic("fec: AVX2 kernel in a build without it")
}
