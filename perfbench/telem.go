package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"fantasticjoules/internal/telemetry"
)

// telemSnap is a point-in-time copy of a telemetry registry, read through
// its public JSON exposition so the benchmark sees exactly what a scraper
// would. Layer counters are the difference of two snapshots.
type telemSnap map[string]telemetry.JSONMetric

func snapshot(r *telemetry.Registry) (telemSnap, error) {
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("telemetry snapshot: %w", err)
	}
	var ms []telemetry.JSONMetric
	if err := json.Unmarshal(buf.Bytes(), &ms); err != nil {
		return nil, fmt.Errorf("telemetry snapshot: %w", err)
	}
	s := make(telemSnap, len(ms))
	for _, m := range ms {
		s[m.Name] = m
	}
	return s, nil
}

// value is a counter's or gauge's value; 0 when the metric is not (yet)
// registered, which is how a package that has not run reads.
func (s telemSnap) value(name string) float64 {
	if m, ok := s[name]; ok && m.Value != nil {
		return *m.Value
	}
	return 0
}

// hist returns a histogram's observation count and sum.
func (s telemSnap) hist(name string) (count, sum float64) {
	m, ok := s[name]
	if !ok {
		return 0, 0
	}
	if m.Count != nil {
		count = float64(*m.Count)
	}
	if m.Sum != nil {
		sum = *m.Sum
	}
	return count, sum
}

// telemDelta is the change between two snapshots of one registry.
type telemDelta struct{ before, after telemSnap }

// counter is the increase of a counter.
func (d telemDelta) counter(name string) float64 {
	return d.after.value(name) - d.before.value(name)
}

// hist is the increase of a histogram's count and sum.
func (d telemDelta) hist(name string) (count, sum float64) {
	c0, s0 := d.before.hist(name)
	c1, s1 := d.after.hist(name)
	return c1 - c0, s1 - s0
}

// gauge is a gauge's value at the later snapshot.
func (d telemDelta) gauge(name string) float64 { return d.after.value(name) }
