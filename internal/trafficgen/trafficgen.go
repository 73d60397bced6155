// Package trafficgen generates the traffic loads used by the lab
// methodology and the fleet simulation.
//
// In the paper's lab (§5.1), an Intel NUC with a ConnectX-6 NIC generates
// up to 100 Gbps with ib_send_bw and the low rates with iPerf3/UDP; the
// DUT forwards the flow through every interface as a layer-2 snake
// (RFC 8239). This package reproduces the load shapes those tools offer:
// fixed-size packets at a requested bit rate, with each generator's rate
// granularity and limits.
package trafficgen

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"fantasticjoules/internal/device"
	"fantasticjoules/internal/units"
)

// EthernetOverhead is the per-packet framing overhead on the wire:
// preamble (8 B), FCS (4 B), and minimum inter-packet gap (12 B). The
// physical-layer bit rate of Eq. (12) includes it.
const EthernetOverhead units.ByteSize = 24

// Load is an offered traffic load on one interface: bit and packet rates,
// both bidirectional sums, plus the packet size that produced them.
type Load struct {
	Bits       units.BitRate
	Packets    units.PacketRate
	PacketSize units.ByteSize
}

// Generator produces loads at requested rates, within the limits of the
// emulated tool.
type Generator interface {
	// Name identifies the tool, e.g. "ib_send_bw".
	Name() string
	// Load returns the offered load for a target physical-layer bit rate
	// and packet size, or an error if the tool cannot produce it.
	Load(rate units.BitRate, packetSize units.ByteSize) (Load, error)
}

// IBSendBW emulates the InfiniBand bandwidth tester used for rates from
// 2.5 to 100 Gbps.
type IBSendBW struct{}

// Name implements Generator.
func (IBSendBW) Name() string { return "ib_send_bw" }

// Load implements Generator.
func (IBSendBW) Load(rate units.BitRate, packetSize units.ByteSize) (Load, error) {
	const min, max = 2.5e9, 100e9
	if rate.BitsPerSecond() < min || rate.BitsPerSecond() > max {
		return Load{}, fmt.Errorf("trafficgen: ib_send_bw covers 2.5–100 Gbps, not %v", rate)
	}
	return fixedSizeLoad(rate, packetSize)
}

// IPerf3UDP emulates iPerf3 in UDP mode, used for the rates below
// 2.5 Gbps.
type IPerf3UDP struct{}

// Name implements Generator.
func (IPerf3UDP) Name() string { return "iperf3-udp" }

// Load implements Generator.
func (IPerf3UDP) Load(rate units.BitRate, packetSize units.ByteSize) (Load, error) {
	const max = 2.5e9
	if rate.BitsPerSecond() <= 0 || rate.BitsPerSecond() > max {
		return Load{}, fmt.Errorf("trafficgen: iperf3 covers (0, 2.5] Gbps, not %v", rate)
	}
	return fixedSizeLoad(rate, packetSize)
}

func fixedSizeLoad(rate units.BitRate, packetSize units.ByteSize) (Load, error) {
	if packetSize < 64 || packetSize > 9216 {
		return Load{}, fmt.Errorf("trafficgen: packet size %v outside [64, 9216] B", packetSize)
	}
	return Load{
		Bits:       rate,
		Packets:    units.PacketRateFor(rate, packetSize, EthernetOverhead),
		PacketSize: packetSize,
	}, nil
}

// ForRate picks the right lab generator for a rate, as the paper does:
// ib_send_bw from 2.5 Gbps up, iPerf3/UDP below.
func ForRate(rate units.BitRate) Generator {
	if rate.BitsPerSecond() >= 2.5e9 {
		return IBSendBW{}
	}
	return IPerf3UDP{}
}

// ApplySnake configures a layer-2 snake (RFC 8239) on the router: the test
// flow enters the first operational interface, is looped through every
// other one, and returns to the generator. Each interface therefore
// carries the flow once in each direction, i.e. a bidirectional rate sum
// equal to the offered rate. It returns the number of interfaces loaded.
func ApplySnake(r *device.Router, load Load) (int, error) {
	names, handles, err := resolveHandles(r)
	if err != nil {
		return 0, err
	}
	n := 0
	step := r.BeginStep()
	defer step.End()
	for i, h := range handles {
		if _, _, operUp := step.InterfaceState(h); !operUp {
			continue
		}
		if err := step.SetTraffic(h, load.Bits, load.Packets); err != nil {
			return n, fmt.Errorf("trafficgen: snake on %s: %w", names[i], err)
		}
		n++
	}
	return n, nil
}

// StopSnake removes the snake load from every operational interface.
func StopSnake(r *device.Router) error {
	names, handles, err := resolveHandles(r)
	if err != nil {
		return err
	}
	step := r.BeginStep()
	defer step.End()
	for i, h := range handles {
		if _, _, operUp := step.InterfaceState(h); !operUp {
			continue
		}
		if err := step.SetTraffic(h, 0, 0); err != nil {
			return fmt.Errorf("trafficgen: unload %s: %w", names[i], err)
		}
	}
	return nil
}

// resolveHandles resolves every interface once, ahead of a batch step —
// Handle locks the router, so it must run before BeginStep.
func resolveHandles(r *device.Router) ([]string, []device.Handle, error) {
	names := r.InterfaceNames()
	handles := make([]device.Handle, len(names))
	for i, name := range names {
		h, err := r.Handle(name)
		if err != nil {
			return nil, nil, err
		}
		handles[i] = h
	}
	return names, handles, nil
}

// Diurnal models the daily and weekly traffic rhythm of an ISP network:
// a baseline with a sinusoidal day cycle peaking in the evening, a weekend
// dip, and multiplicative flow noise. It produces the utilization
// multiplier applied to a link's mean traffic.
//
// A Diurnal is an immutable value: Multiplier reads only its fields and
// the rng passed in (nil for the deterministic pattern), so one Diurnal
// may be shared by any number of goroutines — the fleet simulation calls
// it from every router shard concurrently with a nil rng.
type Diurnal struct {
	// DayAmplitude scales the day/night swing (0 = flat, 0.5 = ±50 %).
	DayAmplitude float64
	// WeekendDip is the relative reduction applied on Saturday and Sunday.
	WeekendDip float64
	// Noise is the stddev of multiplicative per-sample noise.
	Noise float64
	// PeakHour is the local hour of maximum traffic.
	PeakHour float64
}

// DefaultDiurnal returns the pattern used for the synthetic Switch
// network: academic-network style with a 20:00 peak, ±45 % day swing and a
// 30 % weekend dip.
func DefaultDiurnal() Diurnal {
	return Diurnal{DayAmplitude: 0.45, WeekendDip: 0.30, Noise: 0.05, PeakHour: 20}
}

// Multiplier returns the traffic multiplier at time t using rng for the
// noise term. It is always non-negative; with zero noise its mean over a
// week is ≈1.
func (d Diurnal) Multiplier(t time.Time, rng *rand.Rand) float64 {
	hour := float64(t.Hour()) + float64(t.Minute())/60
	phase := 2 * math.Pi * (hour - d.PeakHour) / 24
	m := 1 + d.DayAmplitude*math.Cos(phase)
	switch t.Weekday() {
	case time.Saturday, time.Sunday:
		m *= 1 - d.WeekendDip
	}
	if d.Noise > 0 && rng != nil {
		m *= 1 + rng.NormFloat64()*d.Noise
	}
	if m < 0 {
		m = 0
	}
	return m
}

// IMIX returns the classic Internet packet-size mix as (size, weight)
// pairs; the weighted mean is ≈ 353 B. The fleet simulator uses it to
// derive packet rates from byte counts.
var IMIX = []struct {
	Size   units.ByteSize
	Weight float64
}{
	{64, 7.0 / 12},
	{594, 4.0 / 12},
	{1518, 1.0 / 12},
}

// IMIXMeanSize returns the weighted mean IMIX packet size.
func IMIXMeanSize() units.ByteSize {
	var s, w float64
	for _, e := range IMIX {
		s += e.Size.Bytes() * e.Weight
		w += e.Weight
	}
	return units.ByteSize(s / w)
}
