package fec

import (
	"errors"
	"fmt"
	"sync"
)

// MaxShares is the largest total number of distinct shares (data + repair)
// a single codec can produce, bounded by the field size.
const MaxShares = 255

// Codec is a systematic Reed–Solomon erasure codec for groups of K data
// shares. Share indices 0..K-1 are the data shares verbatim; indices
// K..MaxShares-1 are repair shares. Any K shares with distinct indices
// reconstruct the group. Codec is safe for concurrent use: encode paths
// only read the generator matrix, and the decode-matrix cache is guarded
// by its own lock.
type Codec struct {
	k   int
	gen *matrix // MaxShares × k systematic generator: top k rows = identity

	// Decode-matrix cache, keyed by the erasure pattern (the sorted
	// share indices actually used to decode). Under stationary loss the
	// same patterns recur across groups — and across every agent sharing
	// this codec — so the Gauss–Jordan inversion amortizes to ~zero.
	decMu    sync.RWMutex
	decCache map[string]*matrix
}

// maxDecodeCache bounds the per-codec decode-matrix cache. Each entry is
// a k×k matrix (k²+O(k) bytes); when the bound is hit the cache resets
// rather than evicting — recurring patterns repopulate it immediately.
const maxDecodeCache = 2048

// codecCache memoizes NewCodec per k: codecs are immutable after
// construction (the decode cache is internally synchronized), and the
// Vandermonde build plus systematic transform is O(MaxShares·k²) — far
// too expensive to repeat for every agent in a large topology.
var codecCache struct {
	mu  sync.Mutex
	byK [MaxShares + 1]*Codec
}

// NewCodec returns the codec for groups of k data shares
// (1 <= k <= MaxShares). Codecs are memoized per k and shared: the
// returned value may be the same instance across calls (and goroutines),
// which is safe because all methods are concurrency-safe.
func NewCodec(k int) (*Codec, error) {
	if k < 1 || k > MaxShares {
		return nil, fmt.Errorf("fec: k must be in [1, %d], got %d", MaxShares, k)
	}
	codecCache.mu.Lock()
	defer codecCache.mu.Unlock()
	if c := codecCache.byK[k]; c != nil {
		return c, nil
	}
	c, err := newCodecUncached(k)
	if err != nil {
		return nil, err
	}
	codecCache.byK[k] = c
	return c, nil
}

// newCodecUncached builds a fresh codec, bypassing the memo (the
// cache-correctness tests compare cached and fresh instances).
func newCodecUncached(k int) (*Codec, error) {
	v := vandermonde(MaxShares, k)
	top, err := v.subMatrixRows(seq(k)).invert()
	if err != nil {
		// Cannot happen: the top k rows of a Vandermonde matrix with
		// distinct points are always invertible.
		return nil, err
	}
	return &Codec{k: k, gen: v.mul(top)}, nil
}

// K returns the number of data shares per group.
func (c *Codec) K() int { return c.k }

// Share is one encoded share of a group.
type Share struct {
	// Index identifies the share: 0..K-1 are data shares, >= K repairs.
	Index int
	// Data is the share payload. All shares of a group have equal length.
	Data []byte
}

// Repair produces the repair share with the given index (K <= index <
// MaxShares) from the full set of data shares. data must contain exactly K
// equal-length slices.
func (c *Codec) Repair(data [][]byte, index int) (Share, error) {
	if err := c.checkData(data); err != nil {
		return Share{}, err
	}
	if index < c.k || index >= MaxShares {
		return Share{}, fmt.Errorf("fec: repair index %d out of range [%d, %d)", index, c.k, MaxShares)
	}
	out := make([]byte, len(data[0]))
	c.repairInto(out, data, index)
	return Share{Index: index, Data: out}, nil
}

// repairInto writes the repair share for index into out (length
// len(data[0])).
func (c *Codec) repairInto(out []byte, data [][]byte, index int) {
	addMulRows(out, data, c.gen.row(index))
}

// Repairs produces h consecutive repair shares starting at index K. The
// share payloads are carved from one contiguous allocation.
func (c *Codec) Repairs(data [][]byte, h int) ([]Share, error) {
	if h < 0 || c.k+h > MaxShares {
		return nil, fmt.Errorf("fec: cannot produce %d repairs for k=%d", h, c.k)
	}
	if err := c.checkData(data); err != nil {
		return nil, err
	}
	size := len(data[0])
	slab := make([]byte, h*size)
	shares := make([]Share, h)
	for i := 0; i < h; i++ {
		buf := slab[i*size : (i+1)*size : (i+1)*size]
		c.repairInto(buf, data, c.k+i)
		shares[i] = Share{Index: c.k + i, Data: buf}
	}
	return shares, nil
}

// ErrInsufficientShares is returned by Decode when fewer than K distinct
// shares are supplied.
var ErrInsufficientShares = errors.New("fec: insufficient shares to decode")

// Decode reconstructs the K data shares from any K (or more) shares with
// distinct indices. Extra shares beyond K are ignored. The returned slice
// has length K with data[i] the i'th original data share. Data shares
// present in the input are returned by reference (not copied); treat
// share buffers as immutable.
func (c *Codec) Decode(shares []Share) ([][]byte, error) {
	// Select k distinct shares by index, first occurrence winning, via a
	// dense presence table (no per-call map).
	var pick [MaxShares]int32
	for i := range pick {
		pick[i] = -1
	}
	distinct := 0
	for i, s := range shares {
		if s.Index < 0 || s.Index >= MaxShares {
			return nil, fmt.Errorf("fec: share index %d out of range", s.Index)
		}
		if pick[s.Index] < 0 {
			pick[s.Index] = int32(i)
			distinct++
		}
	}
	if distinct < c.k {
		return nil, fmt.Errorf("%w: have %d distinct, need %d", ErrInsufficientShares, distinct, c.k)
	}
	// Deterministic selection: data shares first, then lowest repair
	// indices (lower indices make the decode matrix better conditioned in
	// terms of work, and determinism keeps simulations reproducible).
	// The selected payloads and their indices, in index order, live on
	// the stack.
	var size = -1
	var selBuf [MaxShares][]byte
	var keyBuf [MaxShares]byte
	sel := selBuf[:0]
	out := make([][]byte, c.k)
	nmissing := 0
	for idx := 0; idx < MaxShares && len(sel) < c.k; idx++ {
		if i := pick[idx]; i >= 0 {
			s := shares[i]
			if size < 0 {
				size = len(s.Data)
			} else if len(s.Data) != size {
				return nil, fmt.Errorf("fec: share %d has length %d, want %d", idx, len(s.Data), size)
			}
			keyBuf[len(sel)] = byte(idx)
			sel = append(sel, s.Data)
			if idx < c.k {
				out[idx] = s.Data
			} else {
				nmissing++
			}
		}
	}
	if nmissing == 0 {
		// All data shares present: nothing to invert.
		return out, nil
	}

	dec, err := c.decodeMatrix(keyBuf[:c.k])
	if err != nil {
		// Cannot happen: any k distinct rows of the systematic
		// Vandermonde generator are linearly independent.
		return nil, err
	}
	slab := make([]byte, nmissing*size)
	next := 0
	for i := 0; i < c.k; i++ {
		if out[i] != nil {
			continue
		}
		buf := slab[next*size : (next+1)*size : (next+1)*size]
		next++
		addMulRows(buf, sel, dec.row(i))
		out[i] = buf
	}
	return out, nil
}

// decodeMatrix returns (computing and caching on miss) the inverse of the
// generator rows whose indices are in key: exactly k share indices in
// ascending order, so the bytes identify the erasure pattern. The lookup
// converts key to a string in the map index expression, which does not
// allocate; only a miss stores an allocated copy.
func (c *Codec) decodeMatrix(key []byte) (*matrix, error) {
	c.decMu.RLock()
	dec, ok := c.decCache[string(key)]
	c.decMu.RUnlock()
	if ok {
		return dec, nil
	}

	rows := make([]int, len(key))
	for i, idx := range key {
		rows[i] = int(idx)
	}
	dec, err := c.gen.subMatrixRows(rows).invert()
	if err != nil {
		return nil, err
	}
	c.decMu.Lock()
	if c.decCache == nil || len(c.decCache) >= maxDecodeCache {
		c.decCache = make(map[string]*matrix)
	}
	c.decCache[string(key)] = dec
	c.decMu.Unlock()
	return dec, nil
}

func (c *Codec) checkData(data [][]byte) error {
	if len(data) != c.k {
		return fmt.Errorf("fec: need %d data shares, got %d", c.k, len(data))
	}
	for i, d := range data {
		if len(d) != len(data[0]) {
			return fmt.Errorf("fec: data share %d has length %d, want %d", i, len(d), len(data[0]))
		}
	}
	return nil
}

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}
