package ispnet

import (
	"sort"
	"time"

	"fantasticjoules/internal/telemetry"
	"fantasticjoules/internal/timeseries"
)

// Streaming simulation mode. Run retains every instrumented trace but
// nothing else; RunStream additionally spills every router's
// full-resolution series to a SeriesSink as columnar chunks while the
// replay engine (replay.go) folds it, so a 9-week 100k-router run keeps
// peak heap at O(fleet metadata) + O(window × steps) and still hands the
// caller every sample. The Dataset is the one Run returns, bit for bit
// (stream_test.go proves it under the DiffDatasets oracle).

// streamChunkPoints is the spill chunk size: 1024 points ≈ 9 KB encoded,
// small enough to buffer, large enough to amortize the sink call.
const streamChunkPoints = 1024

// SeriesSink receives the per-router series a streaming run spills. Chunks
// use the timeseries.AppendChunk encoding; within one (router, series)
// pair they arrive in time order. The sink is called from the consumer
// goroutine only — implementations need no locking — and the chunk buffer
// is reused after the call returns, so a sink that keeps data must copy
// it. Every router spills "power" and "traffic" series on the SNMP step
// grid; instrumented routers additionally spill their autopower, snmp,
// and per-interface rate traces.
type SeriesSink interface {
	WriteChunk(router, series string, chunk []byte) error
}

// DiscardSink is a SeriesSink that only counts what flows through it —
// the sink for throughput benchmarks and for runs that want the bounded
// memory profile without retaining traces.
type DiscardSink struct {
	// Chunks, Points, and Bytes tally the spilled volume.
	Chunks, Points, Bytes int64
}

// WriteChunk implements SeriesSink.
func (d *DiscardSink) WriteChunk(router, series string, chunk []byte) error {
	n, _ := uvarintHead(chunk)
	d.Chunks++
	d.Points += int64(n)
	d.Bytes += int64(len(chunk))
	return nil
}

// uvarintHead reads the point-count header of an encoded chunk.
func uvarintHead(chunk []byte) (uint64, int) {
	var x uint64
	var s uint
	for i, b := range chunk {
		if b < 0x80 {
			return x | uint64(b)<<s, i + 1
		}
		x |= uint64(b&0x7f) << s
		s += 7
		if s >= 64 {
			break
		}
	}
	return 0, 0
}

var (
	metricStreamRuns = telemetry.Default().Counter("ispnet_stream_runs_total",
		"streaming fleet replays started (Network.RunStream calls)")
	metricStreamChunks = telemetry.Default().Counter("ispnet_stream_chunks_total",
		"columnar chunks spilled to SeriesSinks")
	metricStreamChunkBytes = telemetry.Default().Counter("ispnet_stream_chunk_bytes_total",
		"encoded bytes spilled to SeriesSinks")
)

// SimulateStream builds the network for the config and plays the study
// window in streaming mode: the Dataset aggregates are identical to
// Simulate's, per-router series spill to the sink, and peak memory is
// bounded by the worker window instead of the fleet-duration product.
func SimulateStream(cfg Config, sink SeriesSink) (*Dataset, error) {
	n, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	return n.RunStream(sink)
}

// RunStream plays the study window over the already-built network in
// streaming mode; see the package comment above. Like Run, it requires a
// freshly built network. The returned Dataset carries the same aggregates
// and instrumented-router traces as Run — bit-identical for the same
// config — while every router's full-resolution power and traffic series
// go to the sink instead of the heap.
func (n *Network) RunStream(sink SeriesSink) (*Dataset, error) {
	metricRuns.Inc()
	metricStreamRuns.Inc()
	return n.replay(n.schedule(nil), n.totalCapacity(), nil, nil, sink)
}

// spiller encodes played routers' series onto a SeriesSink, reusing one
// encode buffer across the run.
type spiller struct {
	sink      SeriesSink
	stepNanos []int64
	buf       []byte
}

func newSpiller(sink SeriesSink, steps []time.Time) *spiller {
	sp := &spiller{sink: sink, stepNanos: make([]int64, len(steps))}
	for i, t := range steps {
		sp.stepNanos[i] = t.UnixNano()
	}
	return sp
}

// write spills parallel columns as streamChunkPoints-sized chunks.
func (sp *spiller) write(router, series string, ts []int64, vs []float64) error {
	for i := 0; i < len(vs); i += streamChunkPoints {
		j := min(i+streamChunkPoints, len(vs))
		sp.buf = timeseries.AppendChunk(sp.buf[:0], ts[i:j], vs[i:j])
		metricStreamChunks.Inc()
		metricStreamChunkBytes.Add(uint64(len(sp.buf)))
		if err := sp.sink.WriteChunk(router, series, sp.buf); err != nil {
			return err
		}
	}
	return nil
}

// router spills one router's result: its "power" and "traffic" step
// columns, then — when instrumented — its autopower, snmp, and rate
// traces, the rates in sorted interface order so the sink sees a
// deterministic chunk sequence.
func (sp *spiller) router(name string, res *routerResult) error {
	if err := sp.write(name, "power", sp.stepNanos, res.power); err != nil {
		return err
	}
	if err := sp.write(name, "traffic", sp.stepNanos, res.traffic); err != nil {
		return err
	}
	if res.autopower == nil {
		return nil
	}
	traces := []*timeseries.Series{res.autopower}
	if res.snmp != nil {
		traces = append(traces, res.snmp)
	}
	ifaces := make([]string, 0, len(res.rates))
	for iface := range res.rates {
		ifaces = append(ifaces, iface)
	}
	sort.Strings(ifaces)
	for _, iface := range ifaces {
		traces = append(traces, res.rates[iface])
	}
	for _, s := range traces {
		if err := s.Blocks(streamChunkPoints, func(ts []int64, vs []float64) error {
			return sp.write(name, s.Name, ts, vs)
		}); err != nil {
			return err
		}
	}
	return nil
}
