package trafficgen

import (
	"math"
	"time"

	"fantasticjoules/internal/units"
)

// Subscriber demand synthesis for the continental-scale fleet.
//
// The calibrated 107-router network hand-sets every interface's mean load
// from the paper's utilization figures. That does not scale to a 100k-router
// fleet serving millions of subscribers, and it bakes a single network-wide
// diurnal rhythm into every link. At scale the fleet instead synthesizes
// demand bottom-up: each access interface homes a population of subscribers
// drawn from a small set of cohorts, and the per-interface load at time t is
// the closed-form aggregate
//
//	load(t) = Σ_cohort demand[cohort] × multiplier[cohort](t) × noise(t)
//
// where demand[cohort] is the cohort's aggregate mean rate on the interface
// (subscriber count × per-subscriber busy mean) and multiplier[cohort](t)
// is the cohort's diurnal/weekly shape. Aggregating analytically — three
// multiply-adds, never a per-user loop — keeps the fleet replay's LoadAt
// O(1) and allocation-free no matter how many subscribers an interface
// carries; the law of large numbers justifies it (an interface aggregates
// hundreds to thousands of users, so the sum concentrates on its mean and
// residual variation is folded into the simulation's per-step noise term).

// Cohort indexes the subscriber populations the demand synthesis
// distinguishes. The three shapes cover the traffic mixes an ISP
// aggregates: evening-peaked residential eyeballs, business-hours
// enterprise links, and the flatter wholesale/peering aggregate.
type Cohort int

// The subscriber cohorts. NumCohorts sizes the per-interface demand
// vectors carried by the fleet topology.
const (
	// Residential subscribers: evening peak, slight weekend boost.
	Residential Cohort = iota
	// Business subscribers: mid-afternoon peak, strong weekend dip.
	Business
	// Wholesale is the aggregate of transit/peering and locally attached
	// infrastructure — flatter than either access cohort.
	Wholesale

	NumCohorts = 3
)

// CohortProfile describes one cohort: the per-subscriber busy-period mean
// rate and the diurnal/weekly shape of the cohort aggregate.
type CohortProfile struct {
	// Name labels the cohort in reports.
	Name string
	// MeanDemand is the long-term mean bidirectional rate one subscriber
	// contributes to its access interface, in bit/s. Busy-hour demand is
	// MeanDemand scaled by the cohort multiplier's peak.
	MeanDemand units.BitRate
	// DayAmplitude, WeekendDip, and PeakHour shape the cohort multiplier
	// exactly as in Diurnal: a cosine day cycle peaking at PeakHour with
	// ±DayAmplitude swing, scaled by 1-WeekendDip on Saturday and Sunday.
	// A negative WeekendDip models a weekend boost.
	DayAmplitude float64
	WeekendDip   float64
	PeakHour     float64
}

// cohortProfiles is the fixed cohort table; indexed by Cohort.
var cohortProfiles = [NumCohorts]CohortProfile{
	Residential: {Name: "residential", MeanDemand: 2.5e6, DayAmplitude: 0.50, WeekendDip: -0.10, PeakHour: 21},
	Business:    {Name: "business", MeanDemand: 8e6, DayAmplitude: 0.60, WeekendDip: 0.55, PeakHour: 14},
	Wholesale:   {Name: "wholesale", MeanDemand: 0, DayAmplitude: 0.35, WeekendDip: 0.20, PeakHour: 19},
}

// Cohorts returns the cohort table, indexed by Cohort.
func Cohorts() [NumCohorts]CohortProfile {
	return cohortProfiles
}

// CohortMultipliers fills out with every cohort's demand multiplier at
// time t. The multipliers are deterministic, non-negative, and average ≈1
// over a week, so a cohort's mean demand is also its mean offered load.
// The fleet replay hoists this to once per step per router shard: the
// per-interface hot path is then a NumCohorts-term dot product.
func CohortMultipliers(t time.Time, out *[NumCohorts]float64) {
	hour := float64(t.Hour()) + float64(t.Minute())/60
	wd := t.Weekday()
	weekend := wd == time.Saturday || wd == time.Sunday
	for i := range cohortProfiles {
		p := &cohortProfiles[i]
		m := 1 + p.DayAmplitude*math.Cos(2*math.Pi*(hour-p.PeakHour)/24)
		if weekend {
			m *= 1 - p.WeekendDip
		}
		if m < 0 {
			m = 0
		}
		out[i] = m
	}
}

// residentialShare is the fraction of an access interface's target mean
// load carried by residential subscribers; the rest is business. The
// 85/15 split matches the eyeball-heavy mix of the studied network.
const residentialShare = 0.85

// SubscribersFor synthesizes the subscriber population of one access
// interface from its target mean load: how many residential and business
// subscribers it homes, and the resulting per-cohort aggregate mean demand
// in bit/s. Counts are whole subscribers (the quantization means the
// realized mean tracks, but does not exactly equal, the target — as in any
// real deployment); an interface with a positive target homes at least one
// residential subscriber. The synthesis is closed-form and deterministic:
// equal targets give equal populations.
func SubscribersFor(target units.BitRate) (counts [NumCohorts]int, demand [NumCohorts]float64) {
	bits := target.BitsPerSecond()
	if bits <= 0 {
		return counts, demand
	}
	res := int(math.Round(bits * residentialShare / cohortProfiles[Residential].MeanDemand.BitsPerSecond()))
	if res < 1 {
		res = 1
	}
	biz := int(math.Round(bits * (1 - residentialShare) / cohortProfiles[Business].MeanDemand.BitsPerSecond()))
	counts[Residential] = res
	counts[Business] = biz
	demand[Residential] = float64(res) * cohortProfiles[Residential].MeanDemand.BitsPerSecond()
	demand[Business] = float64(biz) * cohortProfiles[Business].MeanDemand.BitsPerSecond()
	return counts, demand
}
