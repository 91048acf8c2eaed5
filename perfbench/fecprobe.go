package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"time"

	"sharqfec/internal/fec"
)

// FEC probe shape: the paper's group size on 1000-byte packets, decoded
// at every erasure count from 1 to probeRepairs.
const (
	probeK        = 16
	probeRepairs  = 8
	probeSize     = 1000
	probePatterns = 4 // erasure patterns per erasure count
	probeRounds   = 5 // timed rounds; the median round is reported
	probeIters    = 50
)

// fecProbe times fec.NewCodec(16) Repairs and Decode and returns their
// throughput in MB of group data per second. Every erasure pattern is
// first decoded and compared with the source bytes.
func fecProbe(seed uint64) (encodeMBs, decodeMBs float64, err error) {
	codec, err := fec.NewCodec(probeK)
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	data := make([][]byte, probeK)
	for i := range data {
		data[i] = make([]byte, probeSize)
		for j := range data[i] {
			data[i][j] = byte(rng.Uint32())
		}
	}
	repairs, err := codec.Repairs(data, probeRepairs)
	if err != nil {
		return 0, 0, err
	}

	// Each pattern loses e data shares and replaces them with e repairs.
	var patterns [][]fec.Share
	for e := 1; e <= probeRepairs; e++ {
		for p := 0; p < probePatterns; p++ {
			lost := rng.Perm(probeK)[:e]
			gone := map[int]bool{}
			for _, i := range lost {
				gone[i] = true
			}
			var shares []fec.Share
			for i := 0; i < probeK; i++ {
				if !gone[i] {
					shares = append(shares, fec.Share{Index: i, Data: data[i]})
				}
			}
			shares = append(shares, repairs[:e]...)
			got, err := codec.Decode(shares)
			if err != nil {
				return 0, 0, fmt.Errorf("decode with %d erasures: %w", e, err)
			}
			for i := range data {
				if !bytes.Equal(got[i], data[i]) {
					return 0, 0, fmt.Errorf("decode with %d erasures: share %d differs from the source", e, i)
				}
			}
			patterns = append(patterns, shares)
		}
	}

	groupMB := float64(probeK*probeSize) / 1e6
	var enc, dec []float64
	for r := 0; r < probeRounds; r++ {
		start := time.Now()
		for i := 0; i < probeIters*len(patterns); i++ {
			if _, err := codec.Repairs(data, probeRepairs); err != nil {
				return 0, 0, err
			}
		}
		enc = append(enc, groupMB*float64(probeIters*len(patterns))/time.Since(start).Seconds())

		start = time.Now()
		for i := 0; i < probeIters; i++ {
			for _, shares := range patterns {
				if _, err := codec.Decode(shares); err != nil {
					return 0, 0, err
				}
			}
		}
		dec = append(dec, groupMB*float64(probeIters*len(patterns))/time.Since(start).Seconds())
	}
	return median(enc), median(dec), nil
}
