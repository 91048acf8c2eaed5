package main

import (
	"runtime"
	"slices"
	"sync"
	"time"
)

// calRefSeconds is one calibration round's wall time on the reference
// host (2-vCPU Intel Xeon, Go 1.24). A run's times are reported at the
// reference host's speed: raw times × calRefSeconds ÷ the median round
// time of every kernel run in the run.
//
// On a shared host the CPU speed available to one process drifts by
// ±20 % over tens of seconds, far more than the program changes the
// benchmark must resolve. The kernel runs after every scenario, in the
// same child process, and between the set-up blocks, so it sees the
// same drift; dividing it out leaves most of the program's own cost.
// The raw times are printed beside the scaled ones.
const calRefSeconds = 0.0075

// calState is one calibration worker's working set, built once and
// reused so that a round allocates nothing and does not depend on the
// Go heap's state.
type calState struct {
	table []uint64 // open-addressing hash table
	cycle []uint32 // one random cycle through all indices
	keys  []uint64
	sort  []uint64
	bytes []byte
	sink  uint64
}

const (
	calTableSize = 1 << 16
	calCycleSize = 1 << 18
	calKeyCount  = 1 << 14
	// calWorkers run the kernel side by side: the simulator's sharded
	// runs keep both CPUs of the reference host busy.
	calWorkers = 2
)

var calStates [calWorkers]*calState

func newCalState() *calState {
	c := &calState{
		table: make([]uint64, calTableSize),
		cycle: make([]uint32, calCycleSize),
		keys:  make([]uint64, calKeyCount),
		sort:  make([]uint64, calKeyCount),
		bytes: make([]byte, 1<<16),
	}
	for i := range c.cycle {
		c.cycle[i] = uint32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// Sattolo's algorithm: a single cycle, so the chase visits every slot.
	for i := len(c.cycle) - 1; i > 0; i-- {
		j := int(next() % uint64(i))
		c.cycle[i], c.cycle[j] = c.cycle[j], c.cycle[i]
	}
	for i := range c.keys {
		c.keys[i] = next()
	}
	return c
}

// round is one round of fixed work shaped like the simulator's:
// hash-table inserts and lookups, pointer chasing, a sort and a byte
// loop. It depends only on this file, never on the program under test.
func (c *calState) round() {
	clear(c.table)
	mask := uint64(calTableSize - 1)
	for _, k := range c.keys {
		for i := k & mask; ; i = (i + 1) & mask {
			if c.table[i] == 0 {
				c.table[i] = k
				break
			}
		}
	}
	for _, k := range c.keys {
		for i := k & mask; c.table[i] != 0; i = (i + 1) & mask {
			if c.table[i] == k {
				c.sink++
				break
			}
		}
	}
	p := uint32(0)
	for i := 0; i < calCycleSize/2; i++ {
		p = c.cycle[p]
	}
	c.sink += uint64(p)
	copy(c.sort, c.keys)
	slices.Sort(c.sort)
	c.sink += c.sort[7]
	for i := 0; i < 20; i++ {
		for j := range c.bytes {
			c.bytes[j] ^= byte(j * i)
		}
	}
	c.sink += uint64(c.bytes[7])
}

// calibrate finishes any garbage collection in progress, runs one
// untimed warm-up round and then reps timed rounds on every worker at
// once, and returns the mean wall time of one round in seconds.
func calibrate(reps int) float64 {
	runtime.GC()
	for i := range calStates {
		if calStates[i] == nil {
			calStates[i] = newCalState()
		}
	}
	run := func(n int) {
		var wg sync.WaitGroup
		for _, c := range calStates {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i++ {
					c.round()
				}
			}()
		}
		wg.Wait()
	}
	run(1)
	start := time.Now()
	run(reps)
	return time.Since(start).Seconds() / float64(reps)
}

// calReps sizes the kernel to about 8 % of a scenario.
func calReps(w *workload) int { return max(8, int(10*w.nominal)) }
