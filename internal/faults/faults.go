package faults

import "hatric/internal/arch"

// Default timeout/backoff parameters, used whenever the corresponding
// Config field is zero. They are sized against the KVM cost model: an IPI
// round trip (send + deliver + VM exit) is a few thousand cycles, so a
// detection timeout must sit above one round trip but well below a
// scheduler quantum.
const (
	// DefaultIPITimeoutCycles is the initiator's wait before concluding a
	// shootdown IPI was lost and re-sending it.
	DefaultIPITimeoutCycles = arch.Cycles(10_000)
	// DefaultAckTimeoutCycles is the directory's wait before reissuing an
	// invalidation relay whose acknowledgment was lost.
	DefaultAckTimeoutCycles = arch.Cycles(2_000)
	// DefaultLinkOutageCycles is the base length of one migration-link
	// outage window.
	DefaultLinkOutageCycles = arch.Cycles(20_000)
	// DefaultMaxRetries bounds retransmissions per fault site before the
	// engine assumes delivery (a real system would escalate; the model
	// keeps the run finite even at loss rate 1.0).
	DefaultMaxRetries = 8
	// maxBackoffShift caps the exponential backoff doubling so a long
	// retry chain cannot overflow the cycle arithmetic.
	maxBackoffShift = 16
)

// Config selects the fault sites to stress and their recovery parameters.
// The zero value injects nothing: every rate at zero keeps the injector
// nil and the simulation bit-identical to a fault-free machine.
type Config struct {
	// Seed overrides the run seed for fault decisions (0 inherits it), so
	// one fault pattern can be replayed against many workload seeds.
	Seed uint64
	// IPILossRate is the probability a software-shootdown IPI is lost in
	// delivery and must be re-sent after a timeout.
	IPILossRate float64
	// AckLossRate is the probability the acknowledgment of a hardware
	// invalidation relay is lost, forcing the directory to reissue it.
	AckLossRate float64
	// LinkOutageRate is the probability a migration pump quantum finds the
	// inter-host link down and must back off.
	LinkOutageRate float64
	// IPITimeoutCycles is the re-IPI detection timeout (0 uses the
	// default); retry n waits timeout << (n-1).
	IPITimeoutCycles arch.Cycles
	// AckTimeoutCycles is the relay-reissue timeout (0 uses the default).
	AckTimeoutCycles arch.Cycles
	// LinkOutageCycles is the base outage window (0 uses the default);
	// consecutive outages back off exponentially.
	LinkOutageCycles arch.Cycles
	// MaxRetries bounds retransmissions per decision (0 uses the default).
	MaxRetries int
}

// Enabled reports whether any fault site has a nonzero rate.
func (c *Config) Enabled() bool {
	return c.IPILossRate > 0 || c.AckLossRate > 0 || c.LinkOutageRate > 0
}

// site enumerates the fault sites. Each has its own salt and sequence so
// the decision stream at one site is independent of what the other sites
// draw (or whether they are enabled at all).
type site int

const (
	siteIPI site = iota
	siteAck
	siteLink
	numSites
)

// siteSalts separate the per-site hash streams (arbitrary odd constants).
var siteSalts = [numSites]uint64{
	siteIPI:  0x8c5fdb1d3f90e2a5,
	siteAck:  0x6a09e667f3bcc909,
	siteLink: 0xb7e151628aed2a6b,
}

// Injector makes the loss/delay decision at each fault site. Every
// decision is a pure function of (seed, site, per-site sequence number):
// no clock, no shared RNG stream, no allocation — so a run replays
// bit-identically. A nil *Injector is valid and injects nothing; every
// method is nil-receiver safe so call sites need no guards.
type Injector struct {
	cfg        Config
	seed       uint64
	thresholds [numSites]uint64
	seq        [numSites]uint64
}

// NewInjector builds an injector from cfg, or returns nil when every rate
// is zero (the provably-inert configuration). runSeed is the simulation
// seed; cfg.Seed overrides it when nonzero.
func NewInjector(cfg Config, runSeed uint64) *Injector {
	if !cfg.Enabled() {
		return nil
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = runSeed
	}
	inj := &Injector{cfg: cfg, seed: seed}
	inj.thresholds[siteIPI] = rateThreshold(cfg.IPILossRate)
	inj.thresholds[siteAck] = rateThreshold(cfg.AckLossRate)
	inj.thresholds[siteLink] = rateThreshold(cfg.LinkOutageRate)
	return inj
}

// rateThreshold converts a probability into the uint64 compare threshold:
// a hash below it means the fault fires.
func rateThreshold(rate float64) uint64 {
	if rate <= 0 {
		return 0
	}
	if rate >= 1 {
		return ^uint64(0)
	}
	return uint64(rate * float64(1<<63) * 2)
}

// mix is the splitmix64 finalizer (the same constants internal/xrand
// uses): a full-avalanche hash, so consecutive sequence numbers yield
// statistically independent decisions.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// decide draws the next decision at site s. Only enabled sites consume
// sequence numbers, so adding a fault site never perturbs another site's
// decision stream.
func (inj *Injector) decide(s site) bool {
	if inj == nil || inj.thresholds[s] == 0 {
		return false
	}
	n := inj.seq[s]
	inj.seq[s] = n + 1
	return mix(inj.seed^siteSalts[s]^n) < inj.thresholds[s]
}

// DropIPI reports whether the next shootdown IPI is lost in delivery.
func (inj *Injector) DropIPI() bool { return inj.decide(siteIPI) }

// DropAck reports whether the next invalidation-relay acknowledgment is
// lost.
func (inj *Injector) DropAck() bool { return inj.decide(siteAck) }

// LinkDown reports whether the migration link is down for this pump
// quantum.
func (inj *Injector) LinkDown() bool { return inj.decide(siteLink) }

// LinkFaults reports whether link outages are configured at all; the
// migration engine gates its non-convergence degradation on it so
// fault-free runs keep the legacy round-count behavior exactly.
func (inj *Injector) LinkFaults() bool {
	return inj != nil && inj.thresholds[siteLink] != 0
}

// MaxRetries returns the per-decision retransmission bound.
func (inj *Injector) MaxRetries() int {
	if inj == nil || inj.cfg.MaxRetries <= 0 {
		return DefaultMaxRetries
	}
	return inj.cfg.MaxRetries
}

// IPIBackoff returns the initiator's wait before re-IPI attempt n
// (1-based): the detection timeout doubled per prior failure.
func (inj *Injector) IPIBackoff(attempt int) arch.Cycles {
	t := DefaultIPITimeoutCycles
	if inj != nil && inj.cfg.IPITimeoutCycles > 0 {
		t = inj.cfg.IPITimeoutCycles
	}
	return t << backoffShift(attempt-1)
}

// AckTimeout returns the directory's wait before reissuing a relay whose
// acknowledgment was lost.
func (inj *Injector) AckTimeout() arch.Cycles {
	if inj == nil || inj.cfg.AckTimeoutCycles <= 0 {
		return DefaultAckTimeoutCycles
	}
	return inj.cfg.AckTimeoutCycles
}

// LinkOutage returns the length of an outage window given the number of
// consecutive outages already weathered: the base window doubled per
// consecutive failure (exponential backoff between retries).
func (inj *Injector) LinkOutage(streak int) arch.Cycles {
	t := DefaultLinkOutageCycles
	if inj != nil && inj.cfg.LinkOutageCycles > 0 {
		t = inj.cfg.LinkOutageCycles
	}
	return t << backoffShift(streak)
}

func backoffShift(n int) uint {
	if n < 0 {
		return 0
	}
	if n > maxBackoffShift {
		return maxBackoffShift
	}
	return uint(n)
}
