package timeseries

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Columnar chunk codec — the spill format of the streaming fleet
// simulation. A chunk is a self-delimiting block of n points in the
// series' native columnar layout:
//
//	uvarint   point count n
//	varints   timestamps: ts[0], then delta, then delta-of-delta —
//	          a regular sampling grid costs one byte per point
//	n×8 bytes values as little-endian IEEE-754 Float64bits
//
// Values stay raw bits rather than delta-coded: the fleet's power series
// are full-precision float64 and the bit-exactness oracle (DiffDatasets)
// must survive a round trip. Timestamps dominate neither size nor cost.

// AppendChunk appends the chunk encoding of the given timestamp
// (unix-nanosecond) and value columns to dst and returns the extended
// buffer, in the append-style of the standard library. The columns must
// be the same length; chunking a series into fixed-size runs is the
// caller's choice (see Series.Blocks).
func AppendChunk(dst []byte, ts []int64, vs []float64) []byte {
	if len(ts) != len(vs) {
		panic(fmt.Sprintf("timeseries: AppendChunk column lengths %d vs %d", len(ts), len(vs)))
	}
	dst = binary.AppendUvarint(dst, uint64(len(ts)))
	var prev, prevDelta int64
	for i, t := range ts {
		switch i {
		case 0:
			dst = binary.AppendVarint(dst, t)
		default:
			d := t - prev
			dst = binary.AppendVarint(dst, d-prevDelta)
			prevDelta = d
		}
		prev = t
	}
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
	}
	return dst
}

// DecodeChunk decodes one chunk from data, appends its points to dst, and
// returns the remaining bytes. The append is exact: timestamps and value
// bits round-trip unchanged. Decoding into a series with enough spare
// capacity (NewWithCap, or a Reset series being refilled) allocates
// nothing — the steady-state of a spill reader draining a stream of
// equal-sized chunks. Corrupt or truncated input returns an error and
// leaves dst exactly as it was.
func DecodeChunk(dst *Series, data []byte) ([]byte, error) {
	count, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("timeseries: chunk header malformed")
	}
	data = data[k:]
	// Each point costs at least one timestamp byte and eight value bytes;
	// a count beyond that bound is corruption, rejected before any
	// allocation is sized from it.
	if count > uint64(len(data))/9+1 {
		return nil, fmt.Errorf("timeseries: chunk count %d exceeds %d input bytes", count, len(data))
	}
	n := int(count)
	base := len(dst.ts)
	dst.grow(base + n)
	wasSorted := dst.sorted
	var prev, prevDelta int64
	for i := 0; i < n; i++ {
		v, k := binary.Varint(data)
		if k <= 0 {
			dst.ts = dst.ts[:base]
			dst.sorted = wasSorted
			return nil, fmt.Errorf("timeseries: chunk timestamp %d malformed", i)
		}
		data = data[k:]
		switch i {
		case 0:
			prev = v
		default:
			prevDelta += v
			prev += prevDelta
		}
		if len(dst.ts) == 0 {
			dst.sorted = true
		} else if prev < dst.ts[len(dst.ts)-1] {
			dst.sorted = false
		}
		dst.ts = append(dst.ts, prev)
	}
	if len(data) < 8*n {
		dst.ts = dst.ts[:base]
		dst.sorted = wasSorted
		return nil, fmt.Errorf("timeseries: chunk values truncated: %d bytes for %d points", len(data), n)
	}
	for i := 0; i < n; i++ {
		dst.vs = append(dst.vs, math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:])))
	}
	dst.valsOK = false
	return data[8*n:], nil
}
