package fec

// Result-equality tests for the optimized kernels: the table-driven
// mulSlice/addMulSlice, the word-wide XOR path and the fused addMulRows
// must be byte-identical to the retained scalar reference kernels on
// every length, alignment, and coefficient. addMulRows runs on every
// dispatch path the build and CPU offer (the AVX2 assembly and the
// table-driven Go); the row forms of mulSlice and addMulSlice (one
// source, or the old dst as a source with coefficient 1) put it under
// the same slice oracles. That equality is what makes the fast paths
// determinism-preserving by construction.

import (
	"bytes"
	"math/rand/v2"
	"sync"
	"testing"
)

// kernelPath is one way addMulRows can be dispatched.
type kernelPath struct {
	name string
	avx2 bool
}

// kernelPaths lists the dispatch paths this build and CPU can run: the
// table path always, the AVX2 path where avx2Supported.
func kernelPaths() []kernelPath {
	paths := []kernelPath{{"table", false}}
	if avx2Supported {
		paths = append(paths, kernelPath{"avx2", true})
	}
	return paths
}

// withPath runs f with addMulRows dispatched to p, then restores the
// init-time choice.
func withPath(p kernelPath, f func()) {
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	useAVX2 = p.avx2
	f()
}

// forEachPath runs f as one subtest per dispatch path.
func forEachPath(t *testing.T, f func(t *testing.T)) {
	for _, p := range kernelPaths() {
		withPath(p, func() { t.Run(p.name, f) })
	}
}

// randBytes returns n bytes from r.
func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint32())
	}
	return b
}

func TestGFMulTableMatchesRef(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			if got, want := gfMul(byte(a), byte(b)), gfMulRef(byte(a), byte(b)); got != want {
				t.Fatalf("gfMul(%d, %d) = %d, ref = %d", a, b, got, want)
			}
		}
	}
}

// TestKernelsMatchScalarReference sweeps random lengths and slice
// offsets — including the unaligned head and the sub-word tail of the
// 8-byte-wide path — for every coefficient class (0, 1, arbitrary).
func TestKernelsMatchScalarReference(t *testing.T) {
	r := rand.New(rand.NewPCG(42, 43))
	backing := make([]byte, 4096)
	for i := range backing {
		backing[i] = byte(r.IntN(256))
	}
	coeffs := []byte{0, 1, 2, 3, 37, 128, 254, 255}
	for trial := 0; trial < 500; trial++ {
		off := r.IntN(64)
		length := r.IntN(300) // covers 0, <8 (pure tail), and multi-word
		src := backing[off : off+length]
		c := coeffs[r.IntN(len(coeffs))]
		if trial%3 == 0 {
			c = byte(r.IntN(256))
		}

		dstOpt := make([]byte, length)
		dstRef := make([]byte, length)
		for i := range dstOpt {
			v := byte(r.IntN(256))
			dstOpt[i], dstRef[i] = v, v
		}

		mulSlice(dstOpt, src, c)
		mulSliceRef(dstRef, src, c)
		if !bytes.Equal(dstOpt, dstRef) {
			t.Fatalf("mulSlice diverges from scalar ref: len=%d off=%d c=%d", length, off, c)
		}

		for i := range dstOpt {
			v := byte(r.IntN(256))
			dstOpt[i], dstRef[i] = v, v
		}
		addMulSlice(dstOpt, src, c)
		addMulSliceRef(dstRef, src, c)
		if !bytes.Equal(dstOpt, dstRef) {
			t.Fatalf("addMulSlice diverges from scalar ref: len=%d off=%d c=%d", length, off, c)
		}
	}
}

// TestKernelsEveryLengthAndOffset compares each slice kernel, and the
// row forms of mulSlice and addMulSlice on every dispatch path, with its
// scalar reference at every length 0–200 and every source and
// destination offset 0–31, so every split between the 32-byte vector
// body, the moved-back last chunk, the 8-byte table body and the byte
// tail is covered at every alignment. The coefficient cycles through all
// 256 values.
func TestKernelsEveryLengthAndOffset(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 8))
	srcBack := randBytes(r, 200+32)
	dstInit := randBytes(r, 200+32)
	got := make([]byte, 200+32)
	want := make([]byte, 200+32)
	prev := make([]byte, 200)
	c := byte(0)
	for length := 0; length <= 200; length++ {
		for so := 0; so < 32; so++ {
			src := srcBack[so : so+length]
			for do := 0; do < 32; do++ {
				c++
				type kernel struct {
					name     string
					opt, ref func(dst []byte)
				}
				kernels := []kernel{
					{"mulSlice", func(d []byte) { mulSlice(d, src, c) }, func(d []byte) { mulSliceRef(d, src, c) }},
					{"addMulSlice", func(d []byte) { addMulSlice(d, src, c) }, func(d []byte) { addMulSliceRef(d, src, c) }},
					{"xorSlice", func(d []byte) { xorSlice(d, src) }, func(d []byte) { addMulSliceRef(d, src, 1) }},
				}
				for _, p := range kernelPaths() {
					kernels = append(kernels,
						kernel{"addMulRows/" + p.name + " as mulSlice", func(d []byte) {
							withPath(p, func() { addMulRows(d, [][]byte{src}, []byte{c}) })
						}, func(d []byte) { mulSliceRef(d, src, c) }},
						kernel{"addMulRows/" + p.name + " as addMulSlice", func(d []byte) {
							old := prev[:copy(prev, d)]
							withPath(p, func() { addMulRows(d, [][]byte{old, src}, []byte{1, c}) })
						}, func(d []byte) { addMulSliceRef(d, src, c) }})
				}
				for _, k := range kernels {
					copy(got, dstInit)
					copy(want, dstInit)
					k.opt(got[do : do+length])
					k.ref(want[do : do+length])
					if !bytes.Equal(got, want) {
						t.Fatalf("%s diverges from scalar ref: len=%d srcOff=%d dstOff=%d c=%d", k.name, length, so, do, c)
					}
				}
			}
		}
	}
}

// TestAddMulRowsMatchesRef checks the fused row kernel against a sum of
// addMulSliceRef passes, one per source, for k ∈ {1, 2, 16, 64} sources
// at every length 0–200 (each split into 32-byte chunks and a
// moved-back last chunk) and at a packet size, with every source at
// its own alignment and dst at an offset that cycles through 0–31. dst
// starts as garbage, which the kernel overwrites.
func TestAddMulRowsMatchesRef(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		r := rand.New(rand.NewPCG(9, 10))
		for _, k := range []int{1, 2, 16, 64} {
			for length := 0; length <= 201; length++ {
				if length == 201 {
					length = 1000
				}
				srcs := make([][]byte, k)
				coeffs := randBytes(r, k)
				coeffs[0] = 0 // the zero and identity rows take no special path
				if k > 1 {
					coeffs[1] = 1
				}
				for j := range srcs {
					off := r.IntN(32)
					srcs[j] = randBytes(r, off+length)[off:]
				}
				do := length % 32
				dst := randBytes(r, do+length)[do:]
				want := make([]byte, length)
				for j, c := range coeffs {
					addMulSliceRef(want, srcs[j], c)
				}
				addMulRows(dst, srcs, coeffs)
				if !bytes.Equal(dst, want) {
					t.Fatalf("addMulRows diverges from per-source reference: k=%d len=%d", k, length)
				}
			}
		}
	})
}

// TestAddMulRowsShortSourcePanics pins the bounds check that keeps the
// assembly from reading past a source shorter than dst.
func TestAddMulRowsShortSourcePanics(t *testing.T) {
	forEachPath(t, func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("addMulRows with a short source did not panic")
			}
		}()
		addMulRows(make([]byte, 64), [][]byte{make([]byte, 64), make([]byte, 40)}, []byte{3, 5})
	})
}

// TestCodecPathsAgree builds a codec and encodes and decodes one group on
// every dispatch path; the generator, the repairs and the decoded data
// must be byte-identical across paths.
func TestCodecPathsAgree(t *testing.T) {
	const k, h, size = 16, 8, 1000
	data := mkData(rand.New(rand.NewPCG(13, 14)), k, size)
	var gens, encs, decs [][]byte
	for _, p := range kernelPaths() {
		withPath(p, func() {
			c, err := newCodecUncached(k)
			if err != nil {
				t.Fatal(err)
			}
			repairs, err := c.Repairs(data, h)
			if err != nil {
				t.Fatal(err)
			}
			shares := append([]Share(nil), repairs...)
			for i := h; i < k; i++ {
				shares = append(shares, Share{Index: i, Data: data[i]})
			}
			dec, err := c.Decode(shares)
			if err != nil {
				t.Fatal(err)
			}
			gens = append(gens, c.gen.data)
			encs = append(encs, bytes.Join(shareData(repairs), nil))
			decs = append(decs, bytes.Join(dec, nil))
			if !bytes.Equal(decs[len(decs)-1], bytes.Join(data, nil)) {
				t.Fatalf("%s: decode did not recover the data", p.name)
			}
		})
	}
	for i := 1; i < len(gens); i++ {
		if !bytes.Equal(gens[i], gens[0]) || !bytes.Equal(encs[i], encs[0]) || !bytes.Equal(decs[i], decs[0]) {
			t.Fatalf("path %s diverges from path %s", kernelPaths()[i].name, kernelPaths()[0].name)
		}
	}
}

func shareData(shares []Share) [][]byte {
	out := make([][]byte, len(shares))
	for i, s := range shares {
		out[i] = s.Data
	}
	return out
}

// TestXorSliceUnalignedTail pins the head/tail handling of the word-wide
// XOR path at every length around the 8-byte boundary.
func TestXorSliceUnalignedTail(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for length := 0; length <= 40; length++ {
		src := make([]byte, length)
		dst := make([]byte, length)
		want := make([]byte, length)
		for i := 0; i < length; i++ {
			src[i] = byte(r.IntN(256))
			dst[i] = byte(r.IntN(256))
			want[i] = dst[i] ^ src[i]
		}
		xorSlice(dst, src)
		if !bytes.Equal(dst, want) {
			t.Fatalf("xorSlice wrong at length %d", length)
		}
	}
}

// TestGFPowLargeExponents verifies the mod-255 exponent reduction: a^n
// must equal a^(n mod 255) for exponents far beyond what the unreduced
// gfLog[a]*n product could safely represent, and must stay consistent
// with iterative multiplication.
func TestGFPowLargeExponents(t *testing.T) {
	for _, a := range []byte{1, 2, 3, 29, 255} {
		acc := byte(1)
		for n := 0; n < 600; n++ {
			if got := gfPow(a, n); got != acc {
				t.Fatalf("gfPow(%d, %d) = %d, iterative = %d", a, n, got, acc)
			}
			acc = gfMul(acc, a)
		}
		for _, n := range []int{1 << 20, 1<<40 + 17, 1<<62 - 1} {
			if got, want := gfPow(a, n), gfPow(a, n%255); got != want {
				t.Fatalf("gfPow(%d, %d) = %d, want a^(n mod 255) = %d", a, n, got, want)
			}
		}
	}
	if gfPow(7, -1) != gfInv(7) {
		t.Fatalf("gfPow(7, -1) = %d, want inverse %d", gfPow(7, -1), gfInv(7))
	}
}

// TestDecodeMatrixCacheHitMiss decodes the same erasure pattern twice
// through the shared (memoized) codec — the second decode is a cache
// hit — and checks both against a fresh cache-free codec instance.
func TestDecodeMatrixCacheHitMiss(t *testing.T) {
	const k = 8
	cached, err := NewCodec(k)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := newCodecUncached(k)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewPCG(11, 12))
	data := mkData(r, k, 200)
	repairs, err := cached.Repairs(data, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Erasure pattern: data shares 1 and 5 lost, replaced by repairs.
	shares := []Share{repairs[0], repairs[1]}
	for i := 0; i < k; i++ {
		if i != 1 && i != 5 {
			shares = append(shares, Share{Index: i, Data: data[i]})
		}
	}
	for pass := 0; pass < 2; pass++ { // pass 0 = miss, pass 1 = hit
		got, err := cached.Decode(shares)
		if err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
		want, err := fresh.Decode(shares)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("pass %d: cached decode diverges from cache-free at share %d", pass, i)
			}
			if !bytes.Equal(got[i], data[i]) {
				t.Fatalf("pass %d: decode did not recover share %d", pass, i)
			}
		}
	}
	cached.decMu.RLock()
	entries := len(cached.decCache)
	cached.decMu.RUnlock()
	if entries == 0 {
		t.Fatal("decode-matrix cache never populated")
	}
}

// TestNewCodecMemoized pins the memoization contract: same k returns the
// same instance; different k never does.
func TestNewCodecMemoized(t *testing.T) {
	a, err := NewCodec(16)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewCodec(16)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("NewCodec(16) returned distinct instances")
	}
	c, err := NewCodec(17)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Fatal("NewCodec(17) returned the k=16 instance")
	}
}

// TestCodecConcurrentDecode hammers one shared codec from many
// goroutines with distinct erasure patterns — the parallel-ensemble
// usage — and is meaningful under -race.
func TestCodecConcurrentDecode(t *testing.T) {
	const k = 8
	c, err := NewCodec(k)
	if err != nil {
		t.Fatal(err)
	}
	data := mkData(rand.New(rand.NewPCG(21, 22)), k, 128)
	repairs, err := c.Repairs(data, k)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewPCG(uint64(w), 7))
			for iter := 0; iter < 50; iter++ {
				lost := map[int]bool{}
				for len(lost) < 3 {
					lost[r.IntN(k)] = true
				}
				var shares []Share
				ri := 0
				for i := 0; i < k; i++ {
					if lost[i] {
						shares = append(shares, repairs[ri])
						ri++
					} else {
						shares = append(shares, Share{Index: i, Data: data[i]})
					}
				}
				dec, err := c.Decode(shares)
				if err != nil {
					t.Error(err)
					return
				}
				for i := range data {
					if !bytes.Equal(dec[i], data[i]) {
						t.Errorf("worker %d: wrong data at %d", w, i)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// FuzzAddMulSliceMatchesRef fuzzes the optimized add-multiply kernel,
// and its row form on every dispatch path, against the scalar reference
// on arbitrary payloads, coefficients, and a fuzzer-chosen slice offset
// (alignment).
func FuzzAddMulSliceMatchesRef(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, byte(37), uint8(1))
	f.Add([]byte{0, 0, 0}, byte(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xAB}, 64), byte(1), uint8(7))
	f.Add(bytes.Repeat([]byte{0x3C, 0xF1}, 70), byte(29), uint8(3))
	f.Fuzz(func(t *testing.T, src []byte, c byte, off uint8) {
		if int(off) > len(src) {
			off = uint8(len(src))
		}
		src = src[off:]
		dstInit := make([]byte, len(src))
		for i := range src {
			dstInit[i] = src[i] ^ 0x5C
		}
		dstRef := append([]byte(nil), dstInit...)
		addMulSliceRef(dstRef, src, c)
		dstOpt := append([]byte(nil), dstInit...)
		addMulSlice(dstOpt, src, c)
		if !bytes.Equal(dstOpt, dstRef) {
			t.Fatalf("addMulSlice(c=%d, len=%d) diverges from scalar reference", c, len(src))
		}
		for _, p := range kernelPaths() {
			withPath(p, func() { addMulRows(dstOpt, [][]byte{dstInit, src}, []byte{1, c}) })
			if !bytes.Equal(dstOpt, dstRef) {
				t.Fatalf("%s addMulRows as addMulSlice(c=%d, len=%d) diverges from scalar reference", p.name, c, len(src))
			}
		}
	})
}

// FuzzMulSliceMatchesRef is the mulSlice counterpart.
func FuzzMulSliceMatchesRef(f *testing.F) {
	f.Add([]byte{255, 254, 1, 0}, byte(2))
	f.Add([]byte{}, byte(9))
	f.Add(bytes.Repeat([]byte{0x81}, 65), byte(200))
	f.Fuzz(func(t *testing.T, src []byte, c byte) {
		dstRef := make([]byte, len(src))
		mulSliceRef(dstRef, src, c)
		dstOpt := make([]byte, len(src))
		mulSlice(dstOpt, src, c)
		if !bytes.Equal(dstOpt, dstRef) {
			t.Fatalf("mulSlice(c=%d, len=%d) diverges from scalar reference", c, len(src))
		}
		for _, p := range kernelPaths() {
			withPath(p, func() { addMulRows(dstOpt, [][]byte{src}, []byte{c}) })
			if !bytes.Equal(dstOpt, dstRef) {
				t.Fatalf("%s addMulRows as mulSlice(c=%d, len=%d) diverges from scalar reference", p.name, c, len(src))
			}
		}
	})
}

// FuzzAddMulRowsMatchesRef fuzzes the fused row kernel on every dispatch
// path. The sources are len(coeffs) consecutive, equal-length pieces of
// payload (so each starts at its own alignment); the reference is a sum
// of addMulSliceRef passes, one per source, into a zeroed row.
func FuzzAddMulRowsMatchesRef(f *testing.F) {
	f.Add(bytes.Repeat([]byte{1, 2, 3, 250}, 40), []byte{7, 0, 1, 99})
	f.Add([]byte{5, 6, 7}, []byte{})
	f.Add(bytes.Repeat([]byte{0xE7}, 33*16), bytes.Repeat([]byte{2, 3}, 8))
	f.Fuzz(func(t *testing.T, payload, coeffs []byte) {
		if len(coeffs) > MaxShares {
			coeffs = coeffs[:MaxShares]
		}
		length := len(payload)
		if len(coeffs) > 0 {
			length /= len(coeffs)
		}
		srcs := make([][]byte, len(coeffs))
		for j := range srcs {
			srcs[j] = payload[j*length : (j+1)*length]
		}
		dstRef := make([]byte, length)
		for j, c := range coeffs {
			addMulSliceRef(dstRef, srcs[j], c)
		}
		for _, p := range kernelPaths() {
			dstOpt := make([]byte, length)
			for i := range dstOpt {
				dstOpt[i] = byte(i) ^ 0xA5 // overwritten, not accumulated into
			}
			withPath(p, func() { addMulRows(dstOpt, srcs, coeffs) })
			if !bytes.Equal(dstOpt, dstRef) {
				t.Fatalf("%s addMulRows(k=%d, len=%d) diverges from per-source reference", p.name, len(coeffs), length)
			}
		}
	})
}

// BenchmarkAddMulRows times one fused output row of the paper's group
// shape (k=16 sources of 1000 bytes) on the path init chose; bytes are
// counted over the sources read.
func BenchmarkAddMulRows(b *testing.B) {
	b.Run("k16x1000", func(b *testing.B) {
		const k, n = 16, 1000
		r := rand.New(rand.NewPCG(3, 4))
		srcs := make([][]byte, k)
		for j := range srcs {
			srcs[j] = randBytes(r, n)
		}
		coeffs := randBytes(r, k)
		dst := make([]byte, n)
		b.SetBytes(k * n)
		for b.Loop() {
			addMulRows(dst, srcs, coeffs)
		}
	})
}
