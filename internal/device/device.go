// Package device simulates fixed-chassis routers at the electrical level.
//
// It is the substitute for the physical hardware of the paper (the lab DUTs
// of §5 and the deployed Switch routers of §6): each simulated router
// computes its true wall power from hidden ground-truth parameters — the
// per-interface terms of the power model plus everything the model
// deliberately omits (fans, temperature, control-plane load, PSU conversion
// losses, per-unit manufacturing variation). The modeling methodology in
// internal/labbench must *recover* the interface terms from experiments
// against this package, and the deployment analyses observe the same
// offsets the paper reports, because the unmodeled terms are really here.
//
// The separation is deliberate: nothing in this package ever consults
// internal/model for a power value at runtime; power flows only from the
// hidden spec.
package device

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"fantasticjoules/internal/model"
	"fantasticjoules/internal/psu"
	"fantasticjoules/internal/units"
)

// Interface is the state of one router port and whatever is plugged into
// it. All mutation goes through Router methods; reads through accessors.
type Interface struct {
	name string
	port model.PortType

	transceiver        model.TransceiverType
	speed              units.BitRate
	transceiverPresent bool

	adminUp bool
	// linkUp models the far end: true when a powered, admin-up peer is
	// attached (the lab cabling or a deployed circuit).
	linkUp bool

	// Offered load, bidirectional sums.
	bits    units.BitRate
	packets units.PacketRate

	// truth caches the resolved ground-truth profile for the interface's
	// current configuration, rebuilt together with the router's static
	// power sum (rebuildStaticLocked) so the per-step load terms read a
	// struct field instead of hashing a profile key into the Truth map.
	truth      model.InterfaceProfile
	truthKnown bool

	// Cumulative counters (SNMP ifHC* semantics), advanced by Router.Advance.
	inOctets, outOctets   uint64
	inPackets, outPackets uint64
}

// Name returns the interface name, e.g. "eth7".
func (i *Interface) Name() string { return i.name }

// Port returns the physical port type.
func (i *Interface) Port() model.PortType { return i.port }

// OperUp reports whether the interface is operationally up: admin-up with a
// transceiver plugged in and a live far end.
func (i *Interface) OperUp() bool {
	return i.adminUp && i.transceiverPresent && i.linkUp
}

// ProfileKey returns the model profile key for the interface's current
// transceiver and speed. It is only meaningful while a transceiver is
// present.
func (i *Interface) ProfileKey() model.ProfileKey {
	return model.ProfileKey{Port: i.port, Transceiver: i.transceiver, Speed: i.speed}
}

// Counters is a snapshot of an interface's cumulative traffic counters.
type Counters struct {
	InOctets, OutOctets   uint64
	InPackets, OutPackets uint64
}

// PSUState is one installed power supply: the electrical unit plus its
// per-unit efficiency offset (manufacturing/aging variation, §9.3.1) and
// the last input power it delivered, for the sensor mocks.
type PSUState struct {
	unit   *psu.Unit
	offset float64 // added to the unit's curve
	// curve is the unit's efficiency curve shifted by offset, materialized
	// once at construction: Offset allocates a fresh point slice, and the
	// wall-power path evaluates the curve for every PSU at every sample.
	curve  psu.Curve
	online bool

	lastIn  units.Power
	lastOut units.Power

	// Pseudo-constant sensor state (see sensors.go).
	held      units.Power
	heldValid bool
}

// Capacity returns the PSU's rated capacity.
func (p *PSUState) Capacity() units.Power { return p.unit.Capacity() }

// Online reports whether the PSU participates in load sharing.
func (p *PSUState) Online() bool { return p.online }

func (p *PSUState) inputFor(out units.Power) units.Power {
	if out <= 0 {
		return 0
	}
	load := out.Watts() / p.unit.Capacity().Watts()
	return units.Power(out.Watts() / p.curve.Efficiency(load))
}

// Router is a simulated fixed-chassis router. Create instances with New;
// all methods are safe for concurrent use (one mutex guards all state).
//
// Concurrency audit for the sharded fleet simulation: a Router carries its
// own rand source (seeded at New) and clock, and shares nothing with other
// Router instances, so each router can be confined to one shard goroutine
// and replayed independently. On that hot path the mutex is uncontended —
// the per-router lock exists for callers that do share a device across
// goroutines (e.g. an SNMP agent polling while a meter samples), not for
// the simulation itself.
type Router struct {
	mu sync.Mutex

	name string
	spec ModelSpec
	rng  *rand.Rand

	osVersion   string
	temperature float64 // ambient °C
	// internalTemp is the chassis temperature when the spec enables
	// thermal coupling; otherwise it tracks ambient exactly.
	internalTemp float64
	fanBoost     units.Power

	interfaces []*Interface
	byName     map[string]*Interface
	psus       []*PSUState
	linecards  []LinecardType

	// Static-power cache: the configuration-dependent part of dcLoadLocked —
	// chassis base, control plane, linecards, and the per-port /
	// per-transceiver terms — changes only when a config event fires
	// (plug/unplug, admin, link, OS upgrade, linecard install/remove), not
	// per simulation step. staticDC holds that sum, trafficIfs the
	// operationally-up interfaces whose load terms still need evaluating
	// every step, and staticOK is the dirty flag every config mutator
	// clears. See rebuildStaticLocked.
	staticDC   units.Power
	trafficIfs []*Interface
	staticOK   bool

	clock time.Time
}

// New creates a router of the given hardware spec. The seed drives all of
// the router's stochastic behaviour (sensor noise, per-PSU variation), so
// equal seeds give bit-identical simulations.
func New(spec ModelSpec, name string, seed int64) (*Router, error) {
	if err := spec.validate(); err != nil {
		return nil, fmt.Errorf("device: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	r := &Router{
		name:         name,
		spec:         spec,
		rng:          rng,
		osVersion:    spec.InitialOSVersion,
		temperature:  25,
		internalTemp: 25,
		byName:       make(map[string]*Interface),
		clock:        time.Date(2024, 9, 1, 0, 0, 0, 0, time.UTC),
	}
	for i := 0; i < spec.NumPorts; i++ {
		itf := &Interface{
			name: fmt.Sprintf("eth%d", i),
			port: spec.PortType,
		}
		r.interfaces = append(r.interfaces, itf)
		r.byName[itf.name] = itf
	}
	for i := 0; i < spec.PSUCount; i++ {
		unit, err := psu.NewUnit(spec.PSUCapacity, spec.PSUCurve)
		if err != nil {
			return nil, fmt.Errorf("device: psu %d: %w", i, err)
		}
		// Model-level efficiency bias plus per-unit variation: the paper
		// observes same-model PSUs spanning a wide efficiency range
		// (§9.3.1, Fig. 6d) and whole models faring poorly (Fig. 6c).
		off := spec.PSUEfficiencyBias + rng.NormFloat64()*spec.PSUEfficiencySpread
		r.psus = append(r.psus, &PSUState{
			unit:   unit,
			offset: off,
			curve:  unit.Curve().Offset(off),
			online: true,
		})
	}
	return r, nil
}

// Name returns the router's deployment name.
func (r *Router) Name() string { return r.name }

// Model returns the hardware model name.
func (r *Router) Model() string { return r.spec.Name }

// Spec returns a copy of the router's hardware spec.
func (r *Router) Spec() ModelSpec { return r.spec }

// Now returns the router's simulation clock.
func (r *Router) Now() time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.clock
}

// InterfaceNames lists the interface names in port order.
func (r *Router) InterfaceNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.interfaces))
	for i, itf := range r.interfaces {
		out[i] = itf.name
	}
	return out
}

func (r *Router) iface(name string) (*Interface, error) {
	itf, ok := r.byName[name]
	if !ok {
		return nil, fmt.Errorf("device: %s has no interface %q", r.name, name)
	}
	return itf, nil
}

// PlugTransceiver inserts a transceiver module into the named port. The
// power cost Ptrx,in starts immediately, whatever the port's admin state —
// the "down does not mean off" behaviour of §7.
func (r *Router) PlugTransceiver(ifName string, trx model.TransceiverType, speed units.BitRate) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	itf, err := r.iface(ifName)
	if err != nil {
		return err
	}
	key := model.ProfileKey{Port: itf.port, Transceiver: trx, Speed: speed}
	if _, ok := r.spec.Truth[key]; !ok {
		return fmt.Errorf("device: %s does not support %s", r.spec.Name, key)
	}
	itf.transceiver = trx
	itf.speed = speed
	itf.transceiverPresent = true
	r.invalidateStaticLocked()
	return nil
}

// UnplugTransceiver removes the module from the named port.
func (r *Router) UnplugTransceiver(ifName string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	itf, err := r.iface(ifName)
	if err != nil {
		return err
	}
	itf.transceiverPresent = false
	itf.bits, itf.packets = 0, 0
	r.invalidateStaticLocked()
	return nil
}

// SetAdmin sets the configured (admin) state of the named interface.
// Taking a port down stops its traffic but — per §7 — does not power off a
// plugged transceiver.
func (r *Router) SetAdmin(ifName string, up bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	itf, err := r.iface(ifName)
	if err != nil {
		return err
	}
	itf.adminUp = up
	if !up {
		itf.bits, itf.packets = 0, 0
	}
	r.invalidateStaticLocked()
	return nil
}

// SetLink sets the far-end state of the named interface: whether a powered,
// admin-up peer is attached. The lab harness uses this to emulate its pair
// cabling; the fleet simulator uses it for deployed circuits.
func (r *Router) SetLink(ifName string, up bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	itf, err := r.iface(ifName)
	if err != nil {
		return err
	}
	itf.linkUp = up
	if !up {
		itf.bits, itf.packets = 0, 0
	}
	r.invalidateStaticLocked()
	return nil
}

// SetTraffic sets the instantaneous offered load on an operationally up
// interface (bidirectional sums). Setting traffic on a down interface is an
// error: nothing would forward it.
func (r *Router) SetTraffic(ifName string, bits units.BitRate, packets units.PacketRate) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	itf, err := r.iface(ifName)
	if err != nil {
		return err
	}
	if bits < 0 || packets < 0 {
		return fmt.Errorf("device: negative traffic on %s", ifName)
	}
	if (bits > 0 || packets > 0) && !itf.OperUp() {
		return fmt.Errorf("device: interface %s is down, cannot carry traffic", ifName)
	}
	if bits > itf.speed*2 {
		return fmt.Errorf("device: %s offered %v exceeds 2×%v line rate", ifName, bits, itf.speed)
	}
	itf.bits = bits
	itf.packets = packets
	return nil
}

// InterfaceState returns the current state of the named interface.
func (r *Router) InterfaceState(ifName string) (present, adminUp, operUp bool, key model.ProfileKey, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	itf, err := r.iface(ifName)
	if err != nil {
		return false, false, false, model.ProfileKey{}, err
	}
	return itf.transceiverPresent, itf.adminUp, itf.OperUp(), itf.ProfileKey(), nil
}

// CountersOf returns the cumulative counters of the named interface.
func (r *Router) CountersOf(ifName string) (Counters, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	itf, err := r.iface(ifName)
	if err != nil {
		return Counters{}, err
	}
	return Counters{
		InOctets: itf.inOctets, OutOctets: itf.outOctets,
		InPackets: itf.inPackets, OutPackets: itf.outPackets,
	}, nil
}

// SetTemperature sets the ambient temperature in °C, which drives fan
// power. Without thermal coupling in the spec, the chassis temperature
// follows ambient instantly.
func (r *Router) SetTemperature(celsius float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.temperature = celsius
	if r.spec.ThermalTimeConstant <= 0 {
		r.internalTemp = celsius
	}
}

// InternalTemperature returns the chassis temperature the fans react to.
func (r *Router) InternalTemperature() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.internalTemp
}

// OSVersion returns the running software version.
func (r *Router) OSVersion() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.osVersion
}

// UpgradeOS installs a new software version. If the spec declares a fan
// regression for that version (the Fig. 8 event: a temperature-management
// change raising fan speeds by ≈45 W), the extra draw applies from now on.
func (r *Router) UpgradeOS(version string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.osVersion = version
	if boost, ok := r.spec.OSFanRegression[version]; ok {
		r.fanBoost = boost
	} else {
		r.fanBoost = 0
	}
	r.invalidateStaticLocked()
}

// SetPSUOnline brings a PSU in or out of the load-sharing pool (the
// single-PSU experiments of §9.3.4). Taking the last online PSU offline is
// an error: the router would lose power.
func (r *Router) SetPSUOnline(index int, online bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if index < 0 || index >= len(r.psus) {
		return fmt.Errorf("device: %s has no PSU %d", r.name, index)
	}
	if !online {
		live := 0
		for _, p := range r.psus {
			if p.online {
				live++
			}
		}
		if live == 1 && r.psus[index].online {
			return fmt.Errorf("device: cannot take the last online PSU of %s offline", r.name)
		}
	}
	r.psus[index].online = online
	// PSU membership does not enter the DC-side static sum, but it changes
	// the wall-power conversion; invalidating keeps the rule simple — every
	// config-changing event drops the cache.
	r.invalidateStaticLocked()
	return nil
}

// PSUCount returns the number of installed PSUs.
func (r *Router) PSUCount() int { return len(r.psus) }

// invalidateStaticLocked marks the static-power cache dirty. Every mutator
// that can change the configuration-dependent power terms calls it; the
// next dcLoadLocked rebuilds. Callers must hold r.mu.
func (r *Router) invalidateStaticLocked() { r.staticOK = false }

// rebuildStaticLocked recomputes the configuration-dependent part of the
// DC load — everything except the fan/thermal terms and the per-interface
// traffic terms — and refreshes each interface's cached truth profile plus
// the list of operationally-up interfaces whose load terms the per-step
// path must still evaluate. Callers must hold r.mu.
func (r *Router) rebuildStaticLocked() {
	s := &r.spec
	p := s.PBaseDC
	p += r.fanBoost
	p += s.ControlPlanePower
	p += r.linecardLoad()
	r.trafficIfs = r.trafficIfs[:0]
	for _, itf := range r.interfaces {
		itf.truthKnown = false
		if itf.transceiverPresent || itf.adminUp {
			itf.truth, itf.truthKnown = s.Truth[itf.ProfileKey()]
			if !itf.truthKnown {
				// Port admin-up with no transceiver: charge the port cost of
				// the spec's default profile for this port type.
				itf.truth, itf.truthKnown = s.portOnlyTruth(itf.port)
			}
		}
		if !itf.truthKnown {
			continue
		}
		if itf.transceiverPresent {
			p += itf.truth.PTrxIn
		}
		if itf.adminUp {
			p += itf.truth.PPort
		}
		if itf.OperUp() {
			p += itf.truth.PTrxUp
			r.trafficIfs = append(r.trafficIfs, itf)
		}
	}
	r.staticDC = p
	r.staticOK = true
}

// dcLoadLocked computes the true DC-side power demand from the hidden spec:
// the cached static configuration terms plus the per-step dynamic part
// (fan power follows the chassis temperature, load terms follow the
// offered traffic). Callers must hold r.mu.
func (r *Router) dcLoadLocked() units.Power {
	if !r.staticOK {
		r.rebuildStaticLocked()
	}
	s := &r.spec
	p := r.staticDC
	p += s.FanBasePower + units.Power(s.FanTempCoeff*(r.internalTemp-25))
	for _, itf := range r.trafficIfs {
		if itf.bits > 0 || itf.packets > 0 {
			p += units.Power(itf.truth.EBit.Joules()*itf.bits.BitsPerSecond() +
				itf.truth.EPkt.Joules()*itf.packets.PacketsPerSecond())
			p += itf.truth.POffset
		}
	}
	return p
}

// WallPower returns the true AC power currently drawn from the outlet: the
// DC load split across the online PSUs, each converting at its own
// efficiency point, plus a small control-plane jitter. This is what an
// external power meter observes.
func (r *Router) WallPower() units.Power {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wallPowerLocked()
}

func (r *Router) wallPowerLocked() units.Power {
	dc := r.dcLoadLocked()
	// Zero-mean jitter models control-plane and environmental churn.
	if r.spec.PowerJitter > 0 {
		dc += units.Power(r.rng.NormFloat64() * r.spec.PowerJitter.Watts())
	}
	if dc < 0 {
		dc = 0
	}
	online := 0
	for _, p := range r.psus {
		if p.online {
			online++
		}
	}
	if online == 0 {
		return 0
	}
	share := units.Power(dc.Watts() / float64(online))
	var wall units.Power
	for _, p := range r.psus {
		if !p.online {
			p.lastIn, p.lastOut = 0, 0
			continue
		}
		in := p.inputFor(share)
		p.lastIn, p.lastOut = in, share
		wall += in
	}
	return wall
}

// Advance moves the simulation clock forward, accumulating interface
// counters from the offered loads and — when the spec enables thermal
// coupling — letting the chassis temperature approach its load-dependent
// equilibrium. It returns the new clock time.
func (r *Router) Advance(dt time.Duration) time.Time {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.advanceLocked(dt)
}

func (r *Router) advanceLocked(dt time.Duration) time.Time {
	sec := dt.Seconds()
	if sec < 0 {
		sec = 0
	}
	if tau := r.spec.ThermalTimeConstant.Seconds(); tau > 0 && sec > 0 {
		// Equilibrium: ambient plus the dissipated load heating the
		// chassis through its thermal resistance.
		target := r.temperature + r.spec.ThermalResistance*r.dcLoadLocked().Watts()
		alpha := 1 - math.Exp(-sec/tau)
		r.internalTemp += (target - r.internalTemp) * alpha
	}
	for _, itf := range r.interfaces {
		if !itf.OperUp() {
			continue
		}
		// Offered rates are bidirectional sums; split evenly for counters.
		octets := itf.bits.BitsPerSecond() / 8 * sec / 2
		pkts := itf.packets.PacketsPerSecond() * sec / 2
		itf.inOctets += uint64(octets)
		itf.outOctets += uint64(octets)
		itf.inPackets += uint64(pkts)
		itf.outPackets += uint64(pkts)
	}
	r.clock = r.clock.Add(dt)
	return r.clock
}

// Inventory returns the interfaces that currently carry a transceiver, in
// port order — the module inventory file the paper combines with power
// models in §6.2.
func (r *Router) Inventory() []InventoryEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []InventoryEntry
	for _, itf := range r.interfaces {
		if !itf.transceiverPresent {
			continue
		}
		out = append(out, InventoryEntry{
			Interface: itf.name,
			Profile:   itf.ProfileKey(),
			AdminUp:   itf.adminUp,
			OperUp:    itf.OperUp(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Interface < out[j].Interface })
	return out
}

// InventoryEntry is one row of a router's transceiver inventory.
type InventoryEntry struct {
	Interface string
	Profile   model.ProfileKey
	AdminUp   bool
	OperUp    bool
}
