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

// The traced run splits the opaque calls (Controller.Run, RunStream) by
// module with a CPU profile: every sample is charged to the innermost
// stack frame that belongs to a module of interest. This file decodes the
// pprof protobuf with a minimal wire-format reader (the benchmark
// imports nothing outside the standard library and the repository) and
// does that attribution.

// cpuModules are the cpu.<module> shares the traced run reports, in
// report order. Every sample lands in exactly one of them.
var cpuModules = []string{
	"ispnet", "device", "trafficgen", "timeseries", "meter", "psu",
	"hypnos", "optimizer", "experiments", "model", "labbench", "datasheet",
	"math_rand", "runtime_gc", "other",
}

// repoPrefix is the import-path prefix of the repository's packages.
const repoPrefix = "fantasticjoules/internal/"

// transparentPkgs are repository packages too thin to own time (unit
// conversions inline into their callers); a sample whose innermost repo
// frame is one of them is charged to the next frame out.
var transparentPkgs = map[string]bool{"units": true}

// gcFuncs are the runtime entry points of garbage-collection work. A
// stack containing one of them is GC time wherever it started, including
// mark assists charged to an allocating repo function.
var gcFuncs = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.gcAssistAlloc":  true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
	"runtime.gcStart":        true,
	"runtime.markroot":       true,
	"runtime.gcDrain":        true,
	"runtime.gcDrainN":       true,
}

// profSample is one stack: function names innermost first, and its
// sample count.
type profSample struct {
	stack []string
	count int64
}

// frameModule classifies one function name: the module it charges, or
// "" when the frame is neutral and the walk continues outward.
func frameModule(fn string) string {
	if gcFuncs[fn] {
		return "runtime_gc"
	}
	if strings.HasPrefix(fn, "math/rand.") {
		return "math_rand"
	}
	if !strings.HasPrefix(fn, repoPrefix) {
		return ""
	}
	rest := fn[len(repoPrefix):]
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	if transparentPkgs[pkg] {
		return ""
	}
	for _, m := range cpuModules {
		if m == pkg {
			return m
		}
	}
	return "other"
}

// attribute returns each module's share of all samples. Shares sum to 1
// (or are all zero for an empty profile).
func attribute(samples []profSample) map[string]float64 {
	counts := make(map[string]int64, len(cpuModules))
	var total int64
	for _, s := range samples {
		mod := "other"
		for _, fn := range s.stack {
			if m := frameModule(fn); m != "" {
				mod = m
				break
			}
		}
		counts[mod] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuModules))
	for _, m := range cpuModules {
		shares[m] = ratio(float64(counts[m]), float64(total))
	}
	return shares
}

// parseProfile decodes a (possibly gzipped) pprof profile into stacks.
// The sample count is the first sample value ("samples" in a CPU
// profile).
func parseProfile(data []byte) ([]profSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		raw     []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnNames = map[uint64]int64{}    // function id → string-table index
	)
	err := walkFields(data, func(f pbField) error {
		switch f.num {
		case 2: // sample
			var s rawSample
			first := true
			err := walkFields(f.b, func(f pbField) error {
				switch f.num {
				case 1: // location_id
					ids, err := varints(f)
					s.locs = append(s.locs, ids...)
					return err
				case 2: // value
					vals, err := varints(f)
					if len(vals) > 0 && first {
						s.count, first = int64(vals[0]), false
					}
					return err
				}
				return nil
			})
			raw = append(raw, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(f.b, func(f pbField) error {
				switch f.num {
				case 1: // id
					id = f.v
				case 4: // line
					return walkFields(f.b, func(f pbField) error {
						if f.num == 1 { // function_id
							fns = append(fns, f.v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(f.b, func(f pbField) error {
				switch f.num {
				case 1: // id
					id = f.v
				case 2: // name
					name = int64(f.v)
				}
				return nil
			})
			fnNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(f.b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(raw))
	for _, r := range raw {
		s := profSample{count: r.count}
		for _, loc := range r.locs {
			for _, fn := range locFns[loc] {
				idx := fnNames[fn]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("profile: function %d names string %d of %d", fn, idx, len(strs))
				}
				s.stack = append(s.stack, strs[idx])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbField is one decoded protobuf field: v holds a varint value, b a
// length-delimited payload (delimited reports which).
type pbField struct {
	num       int
	v         uint64
	b         []byte
	delimited bool
}

// walkFields calls fn for each field of a protobuf message, skipping
// fixed-width fields (pprof uses none of them).
func walkFields(data []byte, fn func(pbField) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		f := pbField{num: int(key >> 3)}
		switch wire := key & 7; wire {
		case 0:
			if f.v, n = binary.Uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			f.b, f.delimited = data[n:n+int(l)], true
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(f); err != nil {
			return err
		}
	}
	return nil
}

// varints returns a repeated varint field's values, packed or not.
func varints(f pbField) ([]uint64, error) {
	if !f.delimited {
		return []uint64{f.v}, nil
	}
	var out []uint64
	for b := f.b; len(b) > 0; {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
