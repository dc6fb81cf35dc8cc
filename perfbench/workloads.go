package main

import (
	"fmt"
	"math"
	"runtime"

	"hatric/internal/arch"
	"hatric/internal/exp"
	"hatric/internal/faults"
	"hatric/internal/hv"
	"hatric/internal/sim"
	"hatric/internal/workload"
)

// sizes sets how much each workload simulates per timed unit. The
// benchmark runs at benchSizes; the tests shrink it.
type sizes struct {
	hotRefs   uint64 // references per thread of the hotpath machine
	stormRefs uint64 // references per vCPU of each storm machine
	campRefs  uint64 // exp.Runner.Refs of the campaign
	mixes     int    // Fig. 10 mixes the campaign runs
	setupReps int    // sim.New repetitions behind setup_s
}

var benchSizes = sizes{hotRefs: 10_000, stormRefs: 10_000, campRefs: 2_000, mixes: 2, setupReps: 50}

// machine is one simulated machine, built with sim.New and run once.
type machine struct {
	name string
	opts sim.Options
}

// plan is everything one workload runs.
type plan struct {
	name string
	// audit machines run once, untimed, with the stale-translation audit
	// on. Their results give the modeled metrics and are the reference
	// every timed run of the same machine must reproduce.
	audit []machine
	// unit is the machine list of one timed unit (hotpath, storm). Each
	// entry names an audit machine with the same configuration.
	unit []machine
	// runner runs the campaign's figures (campaign only); its timed unit
	// is Figure2, Figure13 and the Fig. 10 mixes.
	runner *exp.Runner
	// parallel is the most goroutines the workload runs simulations on.
	parallel int
	// probe names the audit machine the replay probes run against.
	probe string
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"hotpath", "storm", "campaign"}

// newPlan builds the named workload at a seed.
func newPlan(name string, seed uint64, sz sizes) (*plan, error) {
	switch name {
	case "hotpath":
		return hotpathPlan(seed, sz), nil
	case "storm":
		return stormPlan(seed, sz), nil
	case "campaign":
		return campaignPlan(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// hotpathPlan is one VM running canneal on 16 pinned CPUs, everything
// resident in die-stacked memory: no remaps, so host time goes to the
// per-reference path. The sw machine is audited only, for the modeled
// sw-vs-hatric ratios.
func hotpathPlan(seed uint64, sz sizes) *plan {
	spec := mustSpec("canneal").WithRefs(sz.hotRefs)
	mk := func(protocol string) machine {
		cfg := arch.DefaultConfig()
		sim.SizeConfig(&cfg, spec.FootprintPages, hv.ModeInfHBM)
		cfg.NumCPUs = 16
		return machine{name: protocol, opts: sim.Options{
			Config:    cfg,
			Protocol:  protocol,
			Mode:      hv.ModeInfHBM,
			Workloads: sim.SingleWorkload(spec, cfg.NumCPUs),
			Seed:      seed,
		}}
	}
	hatric := mk("hatric")
	return &plan{name: "hotpath", audit: []machine{mk("sw"), hatric}, unit: []machine{hatric}, parallel: 1, probe: "hatric"}
}

// stormPlan is two clone data_caching VMs striped two vCPUs per physical
// CPU with paged placement, while KSM, THP compaction and a live migration
// of VM 1 remap pages and faults are injected at every site they reach.
// One timed unit runs the same machine under sw and then hatric.
func stormPlan(seed uint64, sz sizes) *plan {
	const pcpus, ratio = 8, 2
	spec := mustSpec("data_caching").WithRefs(sz.stormRefs)
	mk := func(protocol string) machine {
		cfg := arch.DefaultConfig()
		sim.SizeConfig(&cfg, ratio*spec.FootprintPages, hv.ModePaged)
		cfg.NumCPUs = pcpus
		cfg.Mem.HBMFrames *= ratio
		return machine{name: protocol, opts: sim.Options{
			Config:      cfg,
			Protocol:    protocol,
			Paging:      hv.BestPolicy(),
			Mode:        hv.ModePaged,
			VMs:         sim.StripedVMs(spec, pcpus, ratio),
			VCPUsPerCPU: ratio,
			Migrations:  []hv.MigrationSpec{{VM: 1, At: 200_000, Dest: arch.TierDRAM, BurstPages: 8}},
			KSM: hv.KSMConfig{ScanEvery: 500, PagesPerScan: 8,
				SharingFactor: 0.5, BreakRate: 0.05, ClassCount: 16},
			Compaction: hv.CompactionConfig{Every: 400, WindowPages: 4},
			Faults:     faults.Config{IPILossRate: 0.02, AckLossRate: 0.02, LinkOutageRate: 0.05},
			Seed:       seed,
		}}
	}
	sw, hatric := mk("sw"), mk("hatric")
	return &plan{name: "storm", audit: []machine{sw, hatric}, unit: []machine{sw, hatric}, parallel: 1, probe: "hatric"}
}

// campaignPlan runs Figure2, Figure13 and a few Figure10 mixes on one
// exp.Runner with one simulation goroutine per host CPU. Its audit
// machines rebuild Fig. 13's paged sw and hatric cells through the public
// sim API; the campaign's modeled metrics come from them, and a check ties
// them to the Figure13 result.
func campaignPlan(seed uint64, sz sizes) *plan {
	if seed == 0 {
		seed = 1 // exp.Runner treats 0 as 1; the audit cells must match.
	}
	threads := 16
	r := &exp.Runner{Refs: sz.campRefs, Threads: threads, Mixes: sz.mixes,
		Parallel: runtime.NumCPU(), Seed: seed}
	var audit []machine
	for _, spec := range workload.BigFive() {
		spec = spec.WithRefs(sz.campRefs)
		for _, protocol := range []string{"sw", "hatric"} {
			cfg := arch.DefaultConfig()
			sim.SizeConfig(&cfg, spec.FootprintPages, hv.ModePaged)
			cfg.NumCPUs = threads
			audit = append(audit, machine{name: spec.Name + "/" + protocol, opts: sim.Options{
				Config:    cfg,
				Protocol:  protocol,
				Paging:    hv.BestPolicy(),
				Mode:      hv.ModePaged,
				Workloads: sim.SingleWorkload(spec, threads),
				Seed:      seed,
			}})
		}
	}
	return &plan{name: "campaign", audit: audit, runner: r, parallel: r.Parallel, probe: "canneal/hatric"}
}

func mustSpec(name string) workload.Spec {
	s, err := workload.ByName(name)
	if err != nil {
		panic(err) // the preset names above are fixed
	}
	return s
}

// vmSpecs returns a machine's VM list in the form sim.New builds it from.
func vmSpecs(o *sim.Options) []sim.VMSpec {
	if len(o.VMs) > 0 {
		return o.VMs
	}
	return sim.OneVM(o.Workloads)
}

// wantRefs is the number of references a machine must retire: every
// thread of every process runs its spec's Refs.
func wantRefs(o *sim.Options) uint64 {
	var n uint64
	for _, vm := range vmSpecs(o) {
		for _, w := range vm.Workloads {
			n += uint64(len(w.CPUs)) * w.Spec.Refs
		}
	}
	return n
}

// campaignRefs is the number of references one campaign unit simulates:
// Figure2 and Figure13 each run four 16-thread cells per big-five
// workload, and Figure10 three 16-application machines per mix.
func campaignRefs(r *exp.Runner) uint64 {
	streams := uint64(2 * 4 * len(workload.BigFive()) * r.Threads)
	for i := 0; i < r.Mixes; i++ {
		streams += 3 * uint64(len(workload.Mix(i)))
	}
	return streams * r.Refs
}

// checkMachine returns what is wrong with one machine's result. ref, when
// non-nil, is an earlier run of the same machine at the same seed, whose
// modeled outcome must repeat exactly.
func checkMachine(m *machine, res, ref *sim.Result) []string {
	var bad []string
	if want := wantRefs(&m.opts); res.Agg.MemRefs != want {
		bad = append(bad, fmt.Sprintf("%s retired %d references, want %d", m.name, res.Agg.MemRefs, want))
	}
	if p := m.opts.Protocol; (p == "hatric" || p == "ideal") && (res.Agg.IPIs != 0 || res.Agg.ShootdownCycles != 0) {
		bad = append(bad, fmt.Sprintf("%s sent %d IPIs and spent %d shootdown cycles, want 0",
			m.name, res.Agg.IPIs, res.Agg.ShootdownCycles))
	}
	if n := res.Agg.StaleTranslationUses; n != 0 {
		bad = append(bad, fmt.Sprintf("%s used %d stale translations", m.name, n))
	}
	if ref != nil && !sameModel(res, ref) {
		bad = append(bad, fmt.Sprintf("%s: a second run of the seed changed the modeled outcome (runtime %d vs %d)",
			m.name, res.Runtime, ref.Runtime))
	}
	return bad
}

// sameModel reports whether two runs produced the same modeled machine.
// The stale-use count is left out: only audited runs count it.
func sameModel(a, b *sim.Result) bool {
	x, y := a.Agg, b.Agg
	x.StaleTranslationUses, y.StaleTranslationUses = 0, 0
	return a.Runtime == b.Runtime && x == y && a.Energy == b.Energy &&
		a.HBMBytes == b.HBMBytes && a.DRAMBytes == b.DRAMBytes
}

// checkStorm returns what is wrong with a storm pair: software shootdowns
// must cost more than hatric's, and every remap source must have fired.
func checkStorm(sw, hatric *sim.Result) []string {
	var bad []string
	if sw.Agg.ShootdownCycles <= hatric.Agg.ShootdownCycles {
		bad = append(bad, fmt.Sprintf("sw shootdown cycles %d not above hatric's %d",
			sw.Agg.ShootdownCycles, hatric.Agg.ShootdownCycles))
	}
	for _, r := range []*sim.Result{sw, hatric} {
		a := &r.Agg
		if a.KSMMerges == 0 || a.KSMBreaks == 0 || a.CompactionMoves == 0 {
			bad = append(bad, fmt.Sprintf("%s: a remap source stayed idle (KSM merges %d, breaks %d, compaction moves %d)",
				r.Protocol, a.KSMMerges, a.KSMBreaks, a.CompactionMoves))
		}
		if len(r.Migrations) != 1 || !r.Migrations[0].Completed {
			bad = append(bad, fmt.Sprintf("%s: the live migration did not complete", r.Protocol))
		}
	}
	return bad
}

// figures is one campaign unit's output.
type figures struct {
	fig2  *exp.Fig2Result
	fig13 *exp.Fig13Result
	fig10 *exp.Fig10Result
}

// checkFig13 ties the campaign's Figure13 to the audit machines: each
// cell's sw/hatric runtime ratio must equal the ratio of the rebuilt
// cells, or the modeled campaign metrics describe other machines.
func checkFig13(f *exp.Fig13Result, audit map[string]*sim.Result) []string {
	var bad []string
	if len(f.Cells) != len(workload.BigFive()) {
		return []string{fmt.Sprintf("Figure13 has %d cells, want %d", len(f.Cells), len(workload.BigFive()))}
	}
	for _, c := range f.Cells {
		sw, ha := audit[c.Workload+"/sw"], audit[c.Workload+"/hatric"]
		if sw == nil || ha == nil {
			bad = append(bad, fmt.Sprintf("Figure13 cell %s has no audit machines", c.Workload))
			continue
		}
		got := c.SW / c.HATRICRuntime
		want := float64(sw.Runtime) / float64(ha.Runtime)
		if math.Abs(got-want) > 1e-9*want {
			bad = append(bad, fmt.Sprintf("Figure13 %s sw/hatric %.12f, rebuilt cells give %.12f", c.Workload, got, want))
		}
	}
	return bad
}

// fig13Speedup is the geometric mean of sw/hatric runtime over Fig. 13.
func fig13Speedup(f *exp.Fig13Result) float64 {
	logs := 0.0
	for _, c := range f.Cells {
		logs += math.Log(c.SW / c.HATRICRuntime)
	}
	return math.Exp(logs / float64(len(f.Cells)))
}

// modeled holds the end-to-end metrics that are exact for a seed.
type modeled struct {
	mcycles, speedup, energy float64
}

// modeledMetrics derives the modeled metrics from the audit results.
// hotpath and storm compare the same machine under sw and hatric; the
// campaign sums its five hatric cells and takes geometric means over the
// cells (speed-up from Figure13 itself).
func modeledMetrics(p *plan, audit map[string]*sim.Result, fig13 *exp.Fig13Result) modeled {
	if p.runner == nil {
		sw, ha := audit["sw"], audit["hatric"]
		return modeled{
			mcycles: float64(ha.Runtime) / 1e6,
			speedup: float64(sw.Runtime) / float64(ha.Runtime),
			energy:  ha.Energy.TotalPJ / sw.Energy.TotalPJ,
		}
	}
	var m modeled
	logE := 0.0
	cells := workload.BigFive()
	for _, c := range cells {
		sw, ha := audit[c.Name+"/sw"], audit[c.Name+"/hatric"]
		m.mcycles += float64(ha.Runtime) / 1e6
		logE += math.Log(ha.Energy.TotalPJ / sw.Energy.TotalPJ)
	}
	m.energy = math.Exp(logE / float64(len(cells)))
	if fig13 != nil {
		m.speedup = fig13Speedup(fig13)
	}
	return m
}
