package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// layers are the repo packages the per-layer shares are reported for.
// A sample is charged to the innermost frame in repro/internal/<pkg>;
// stdlib and benchmark frames are charged to their repo caller, a repo
// package not listed here to "other", and a stack with no repo frame at
// all (GC workers, the scheduler) to "runtime".
var layers = []string{
	"providers", "zone", "resolver", "dnssec", "dnswire", "svcb", "ech",
	"transport", "scanner", "simnet", "dataset", "analysis", "workload",
	"obs", "core", "tranco", "runtime", "other",
}

const repoPrefix = "repro/internal/"

// layerOf names the layer a stack (function names, innermost first) is
// charged to.
func layerOf(frames []string) string {
	for _, fn := range frames {
		rest, ok := strings.CutPrefix(fn, repoPrefix)
		if !ok {
			continue
		}
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			rest = rest[:i]
		}
		for _, l := range layers {
			if l == rest {
				return l
			}
		}
		return "other"
	}
	return "runtime"
}

// stack is one profile sample: its frames, innermost first, and weight.
type stack struct {
	frames []string
	value  float64
}

// addFolded charges each stack's weight to its layer.
func addFolded(into map[string]float64, stacks []stack) {
	for _, s := range stacks {
		into[layerOf(s.frames)] += s.value
	}
}

// shares converts per-layer totals to percentages of their sum, with
// every layer present.
func shares(totals map[string]float64) map[string]float64 {
	var sum float64
	for _, v := range totals {
		sum += v
	}
	out := make(map[string]float64, len(layers))
	for _, l := range layers {
		if sum > 0 {
			out[l] = 100 * totals[l] / sum
		} else {
			out[l] = 0
		}
	}
	return out
}

// memKey identifies an allocation site by its call stack.
type memKey [32]uintptr

type memCount struct{ bytes, objects int64 }

// memProfile reads the runtime's cumulative allocation profile, which is
// current as of the last completed GC.
func memProfile() map[memKey]memCount {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[memKey]memCount, len(recs))
	for _, r := range recs {
		c := out[r.Stack0]
		c.bytes += r.AllocBytes
		c.objects += r.AllocObjects
		out[r.Stack0] = c
	}
	return out
}

// memDelta returns the allocations made between two profile reads, each
// site's sampled bytes scaled up to an estimate of the true bytes the
// way pprof does for the runtime's Poisson sampling.
func memDelta(before, after map[memKey]memCount) []stack {
	rate := float64(runtime.MemProfileRate)
	var out []stack
	for k, a := range after {
		b := before[k]
		bytes, objects := a.bytes-b.bytes, a.objects-b.objects
		if bytes <= 0 || objects <= 0 {
			continue
		}
		scale := 1.0
		if rate > 1 {
			scale = 1 / (1 - math.Exp(-float64(bytes)/float64(objects)/rate))
		}
		out = append(out, stack{frames: symbolize(k), value: float64(bytes) * scale})
	}
	return out
}

// symbolize expands a profile stack's PCs into function names, innermost
// first, inlined frames included.
func symbolize(k memKey) []string {
	pcs := k[:]
	for i, pc := range pcs {
		if pc == 0 {
			pcs = pcs[:i]
			break
		}
	}
	var names []string
	frames := runtime.CallersFrames(pcs)
	for {
		f, more := frames.Next()
		names = append(names, f.Function)
		if !more {
			return names
		}
	}
}

// decodeCPUProfile reads the stacks of a gzipped profile.proto CPU
// profile as runtime/pprof writes it, weighting each by its last sample
// value (CPU nanoseconds). It decodes only the fields it needs: samples,
// locations, functions and the string table.
func decodeCPUProfile(gz []byte) ([]stack, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcNames = map[uint64]int{}      // function id -> string index
		strs      []string
	)
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2:
			var s sample
			err := walk(b, func(f int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = appendVarints(s.locs, v, b)
				case 2:
					s.values, err = appendVarints(s.values, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5:
			var id, name uint64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = int(name)
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		var frames []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i, ok := funcNames[fn]; ok && i < len(strs) {
					frames = append(frames, strs[i])
				}
			}
		}
		out = append(out, stack{frames: frames, value: float64(s.values[len(s.values)-1])})
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// walk calls fn for each field of a protobuf message: v carries a varint
// field's value, b a length-delimited field's bytes. Fixed-width fields
// are skipped.
func walk(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errTruncated
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errTruncated
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values, in either its
// packed (b set) or unpacked (v) encoding.
func appendVarints(dst []uint64, v uint64, b []byte) ([]uint64, error) {
	if b == nil {
		return append(dst, v), nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst, errTruncated
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst, nil
}
