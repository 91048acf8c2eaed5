package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// Layers are the repository's modules; CPU samples and set-up spans are
// charged to them. "gc" holds background garbage collection and "other"
// every sample with no layer frame (the facade, the runtime alone).
var layers = []string{
	"topology", "scoping", "census", "eventq", "netsim",
	"session", "core", "fec", "telemetry", "faults", "gc", "other",
}

const internalPrefix = "sharqfec/internal/"

// layerOf maps a function symbol to its layer, or "" when the function
// belongs to none: internal helper packages (simrand, stats, packet, …)
// are charged to the layer that called them.
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, internalPrefix) {
		return ""
	}
	pkg := fn[len(internalPrefix):]
	if i := strings.IndexByte(pkg, '.'); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "telemetry/census":
		return "census"
	case "telemetry", "telemetry/spans", "telemetry/health":
		return "telemetry"
	case "topology", "scoping", "eventq", "netsim", "session", "core", "fec", "faults":
		return pkg
	}
	return ""
}

// backgroundGC lists the runtime's own garbage-collection goroutines.
var backgroundGC = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// attribute charges one sampled stack, innermost frame first, to a
// layer: the innermost frame in a layer package wins, so runtime map
// and allocation work is charged to the layer that caused it.
func attribute(stack []string) string {
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if backgroundGC[fn] {
			return "gc"
		}
	}
	return "other"
}

// layerSamples decodes a gzipped pprof CPU profile and sums its sample
// counts per layer.
func layerSamples(profile []byte) (map[string]int64, error) {
	p, err := decodeProfile(profile)
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	var stack []string
	for _, s := range p.samples {
		stack = stack[:0]
		for _, id := range s.locations {
			for _, fid := range p.locations[id] {
				stack = append(stack, p.strings[p.functions[fid]])
			}
		}
		if len(s.values) > 0 {
			out[attribute(stack)] += s.values[0]
		}
	}
	return out, nil
}

// profile is the part of a pprof profile the attribution needs.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id → function ids, innermost first
	functions map[uint64]int64    // function id → name index into strings
	strings   []string
}

type sample struct {
	locations []uint64 // leaf first
	values    []int64
}

// Field numbers of profile.proto used below.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profString   = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4
	lineFunction = 1

	functionID   = 1
	functionName = 2
)

func decodeProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, err
		}
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]int64{}}
	err := eachField(data, func(num int, v uint64, b []byte) error {
		switch num {
		case profSample:
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case sampleLocation:
					return appendUints(&s.locations, v, b)
				case sampleValue:
					var vs []uint64
					if err := appendUints(&vs, v, b); err != nil {
						return err
					}
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case locationID:
					id = v
				case locationLine:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case profString:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, name := range p.functions {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	for _, s := range p.samples {
		for _, loc := range s.locations {
			fns, ok := p.locations[loc]
			if !ok {
				return nil, fmt.Errorf("sample names unknown location %d", loc)
			}
			for _, f := range fns {
				if _, ok := p.functions[f]; !ok {
					return nil, fmt.Errorf("location %d names unknown function %d", loc, f)
				}
			}
		}
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and either its integer value (varint and fixed wire types) or
// its bytes (length-delimited).
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			body = b[n : n+int(l)]
			b = b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(num, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated integer field, packed (b != nil) or not.
func appendUints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
