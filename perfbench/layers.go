package main

import (
	"time"

	"hatric/internal/arch"
	"hatric/internal/cache"
	"hatric/internal/sim"
	"hatric/internal/stats"
	"hatric/internal/tstruct"
	"hatric/internal/workload"
)

// probeRefsPerStream bounds how many references of each stream the
// lookup and access probes replay.
const probeRefsPerStream = 4096

// probeRef is one reference of a regenerated stream with the CPU, VM and
// process that issued it.
type probeRef struct {
	cpu, vm, pid int
	acc          workload.Access
}

// replayStreams regenerates every reference stream of a machine through
// workload.NewStream/NextBatch, seeded exactly as sim.New seeds them. It
// returns the generation time per reference and the first
// probeRefsPerStream references of each stream.
func replayStreams(o *sim.Options) (nsPerRef float64, refs []probeRef) {
	var elapsed time.Duration
	var total uint64
	buf := make([]workload.Access, 256)
	globalPID := 0
	for v, vm := range vmSpecs(o) {
		for pid, w := range vm.Workloads {
			spec := w.Spec.PerThread(len(w.CPUs))
			for ti, slot := range w.CPUs {
				st := workload.NewStream(spec, o.Seed+uint64(globalPID)*101, ti)
				kept := 0
				for {
					t0 := time.Now()
					n := st.NextBatch(buf)
					elapsed += time.Since(t0)
					if n == 0 {
						break
					}
					total += uint64(n)
					for _, a := range buf[:min(n, probeRefsPerStream-kept)] {
						refs = append(refs, probeRef{cpu: slot % o.Config.NumCPUs, vm: v, pid: pid, acc: a})
					}
					kept = min(kept+n, probeRefsPerStream)
				}
			}
			globalPID++
		}
	}
	if total == 0 {
		return 0, refs
	}
	return float64(elapsed.Nanoseconds()) / float64(total), refs
}

// probeReps is how many times each probe replays its keys; the median
// replay is reported.
const probeReps = 5

// lookupNS replays the references' TLB keys against the machine's L1 and
// (on a miss) L2 TLBs after its run and returns the median time per
// lookup.
func lookupNS(sys *sim.System, refs []probeRef) float64 {
	type key struct {
		ts  *tstruct.CPUSet
		vm  int
		key uint64
	}
	keys := make([]key, len(refs))
	for i, r := range refs {
		keys[i] = key{sys.TS(r.cpu), r.vm, tstruct.TLBKey(r.pid, r.acc.VA.Page())}
	}
	var per []float64
	for rep := 0; rep < probeReps; rep++ {
		lookups := 0
		t0 := time.Now()
		for _, k := range keys {
			lookups++
			if _, ok := k.ts.L1TLB.Lookup(k.vm, k.key); !ok {
				lookups++
				k.ts.L2TLB.Lookup(k.vm, k.key)
			}
		}
		if lookups > 0 {
			per = append(per, float64(time.Since(t0).Nanoseconds())/float64(lookups))
		}
	}
	return median(per)
}

// accessNS translates the references through the machine's page tables
// and replays the resulting system physical addresses through its cache
// hierarchy after the run, returning the median time per access.
// References to pages not present at the end of the run are skipped.
func accessNS(sys *sim.System, refs []probeRef) float64 {
	type access struct {
		cpu   int
		spa   arch.SPA
		write bool
	}
	var accs []access
	vms := sys.VMs()
	for _, r := range refs {
		spp, ok := vms[r.vm].Translate(r.pid, r.acc.VA.Page())
		if !ok {
			continue
		}
		accs = append(accs, access{r.cpu, spp.Addr() + arch.SPA(r.acc.VA.Offset()), r.acc.Write})
	}
	if len(accs) == 0 {
		return 0
	}
	h := sys.Hierarchy()
	var per []float64
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		for _, a := range accs {
			now := sys.Clock(a.cpu)
			if a.write {
				h.Write(a.cpu, a.spa, cache.KindData, now)
			} else {
				h.Read(a.cpu, a.spa, cache.KindData, now)
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(len(accs)))
	}
	return median(per)
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// counterMetrics derives the modeled per-layer metrics from the summed
// counters of a workload's machines.
func counterMetrics(set func(name string, v float64, unit string), results []*sim.Result) {
	var a stats.Counters
	var hbm, dram uint64
	for _, r := range results {
		a.Add(&r.Agg)
		hbm += r.HBMBytes
		dram += r.DRAMBytes
	}
	set("sim.vcpu_switches", float64(a.VCPUSwitches), "count")
	set("walker.walks", float64(a.Walks), "count")
	set("walker.refs_per_walk", ratio(a.WalkRefs, a.Walks), "refs/walk")
	set("tstruct.l1tlb_miss_ratio", ratio(a.L1TLBMisses, a.L1TLBHits+a.L1TLBMisses), "ratio")
	set("tstruct.l2tlb_miss_ratio", ratio(a.L2TLBMisses, a.L2TLBHits+a.L2TLBMisses), "ratio")
	set("tstruct.mmu_miss_ratio", ratio(a.MMUCacheMisses, a.MMUCacheHits+a.MMUCacheMisses), "ratio")
	set("tstruct.ntlb_miss_ratio", ratio(a.NTLBMisses, a.NTLBHits+a.NTLBMisses), "ratio")
	set("tstruct.entries_lost_per_remap",
		ratio(a.TLBEntriesLost+a.MMUEntriesLost+a.NTLBEntriesLost, a.RemapsInitiated), "entries/remap")
	set("cache.l1_miss_ratio", ratio(a.L1Misses, a.L1Hits+a.L1Misses), "ratio")
	set("cache.llc_miss_ratio", ratio(a.LLCMisses, a.LLCHits+a.LLCMisses), "ratio")
	set("coherence.dir_lookups", float64(a.DirLookups), "count")
	set("coherence.invalidations", float64(a.InvalidationsSent), "count")
	set("coherence.spurious_ratio", ratio(a.SpuriousInvalidations, a.InvalidationsSent), "ratio")
	set("coherence.back_invalidations", float64(a.DirBackInvalidations), "count")
	set("memdev.hbm_mb", float64(hbm)/1e6, "MB")
	set("memdev.dram_mb", float64(dram)/1e6, "MB")
	set("core.remaps", float64(a.RemapsInitiated), "count")
	set("core.ipis", float64(a.IPIs), "count")
	set("core.shootdown_cycles_per_remap", ratio(a.ShootdownCycles, a.RemapsInitiated), "cycles/remap")
	set("core.desched_stall_cycles", float64(a.DescheduledStallCycles), "cycles")
	set("core.selective_invalidations", float64(a.SelectiveInvalidations), "count")
	set("core.shootdown_retries", float64(a.ShootdownRetries), "count")
	set("core.relay_reissues", float64(a.RelayReissues), "count")
	set("hv.page_faults", float64(a.PageFaults), "count")
	set("hv.page_evictions", float64(a.PageEvictions), "count")
	set("hv.ksm_merges", float64(a.KSMMerges), "count")
	set("hv.ksm_breaks_per_merge", ratio(a.KSMBreaks, a.KSMMerges), "ratio")
	set("hv.compaction_moves", float64(a.CompactionMoves), "count")
	set("hv.migration_pages", float64(a.MigrationPagesCopied), "count")
	set("hv.migration_redirtied_ratio", ratio(a.MigrationRedirtied, a.MigrationPagesCopied), "ratio")
	set("hv.migration_downtime_cycles", float64(a.MigrationDowntimeCycles), "cycles")
	set("hv.link_retries", float64(a.MigrationLinkRetries), "count")
}
