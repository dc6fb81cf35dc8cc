// Package walker implements the hardware page-table walker of one CPU: the
// two-dimensional (guest x nested) walk of Fig. 1, accelerated by the L1/L2
// TLBs, the paging-structure MMU cache, and the nested TLB. The walker
// fills translation structures and sets their co-tags, exactly as HATRIC
// requires (Sec. 4.1, "Who sets co-tags?").
package walker

import (
	"hatric/internal/arch"
	"hatric/internal/cache"
	"hatric/internal/coherence"
	"hatric/internal/pagetable"
	"hatric/internal/stats"
	"hatric/internal/tstruct"
)

// Fault reports a nested page fault: the data page's guest physical page is
// not present in the nested page table (it lives in the slow tier and must
// be migrated in by the hypervisor).
type Fault struct {
	PID int
	GVP arch.GVP
	GPP arch.GPP
}

// GuestPTResolver returns the guest page table of a process in the VM.
type GuestPTResolver func(pid int) *pagetable.GuestPT

// TLB values pack both the system physical page (so the access proceeds)
// and the guest physical page (so the simulator can maintain nested
// accessed bits precisely on every reference, matching the paper's
// trace-driven access tracking for its LRU policy). The packing lives in
// tstruct so the prefetch protocol extension can rewrite values in place.

func packVal(spp arch.SPP, gpp arch.GPP) uint64 {
	return tstruct.PackTLBVal(uint64(spp), uint64(gpp))
}

func unpackVal(v uint64) (arch.SPP, arch.GPP) {
	s, g := tstruct.UnpackTLBVal(v)
	return arch.SPP(s), arch.GPP(g)
}

// Walker is one CPU's MMU: translation structures plus the hardware walker.
// Nested and Guest identify the page tables the walker descends — the
// current VM's. A CPU's VM context can only change at a world switch, so
// the simulator installs it with SetVM there (and once at setup) instead of
// the walker re-resolving it on every translation; this is how a multi-VM
// machine keeps each CPU walking the nested page table of the VM it runs.
type Walker struct {
	CPU    int
	Cost   arch.CostModel
	Hier   *coherence.Hierarchy
	TS     *tstruct.CPUSet
	Cnt    *stats.Counters
	Nested *pagetable.NestedPT
	Guest  GuestPTResolver

	// vm is the current VM's ID (VPID), installed by SetVM; 0 when never
	// set (single-VM rigs).
	vm int

	// steps is the scratch buffer for guest walk steps, reused across
	// walks so the hot path never allocates (at most PTLevels entries).
	steps []pagetable.WalkStep

	// fault is the scratch Fault the walker returns a pointer to on a
	// nested fault, reused across walks so the paged-mode fault path does
	// not allocate either. Callers consume the fault before the next
	// Translate call on the same walker (the sim's retry loop does).
	fault Fault
}

// SetVM installs the VM context the walker operates in: the dense ID (the
// VPID every fill is tagged with and every lookup qualified by), the VM's
// nested page table, and its per-process guest page tables. Under a
// time-sliced scheduler this must be called at every cross-VM world switch;
// the VM tags are what keep two VMs' identical (pid, gvp) pairs apart in a
// shared TLB.
func (w *Walker) SetVM(vm int, nested *pagetable.NestedPT, guest GuestPTResolver) {
	w.vm = vm
	w.Nested = nested
	w.Guest = guest
}

// Translate resolves (pid, gvp) to a system physical page (plus the guest
// physical page backing it), charging all translation-structure and memory
// latencies. On a nested fault it returns a non-nil fault and the cycles
// burned discovering it.
//
// Runs once per memory reference: allocation-free by contract
// (hatriclint hotpath; the annotation propagates through walk,
// translateGPP, and fill).
//
//hatric:hotpath
func (w *Walker) Translate(pid int, gvp arch.GVP, now arch.Cycles) (arch.SPP, arch.GPP, arch.Cycles, *Fault) {
	key := tstruct.TLBKey(pid, gvp)
	if v, ok := w.TS.L1TLB.Lookup(w.vm, key); ok {
		w.Cnt.L1TLBHits++
		spp, gpp := unpackVal(v)
		return spp, gpp, 0, nil
	}
	w.Cnt.L1TLBMisses++
	lat := w.Cost.L2TLBHit
	if e, ok := w.TS.L2TLB.LookupEntry(w.vm, key); ok {
		w.Cnt.L2TLBHits++
		// The L2 to L1 refill carries the original co-tag along.
		w.fill(w.TS.L1TLB, key, e.Val, e.Src, cache.IsPTKind(e.Kind), true)
		spp, gpp := unpackVal(e.Val)
		return spp, gpp, lat, nil
	}
	w.Cnt.L2TLBMisses++

	spp, gpp, wlat, fault := w.walk(pid, gvp, now+lat)
	return spp, gpp, lat + wlat, fault
}

// walk performs the 2-D page-table walk.
func (w *Walker) walk(pid int, gvp arch.GVP, now arch.Cycles) (arch.SPP, arch.GPP, arch.Cycles, *Fault) {
	w.Cnt.Walks++
	gpt := w.Guest(pid)
	var lat arch.Cycles

	// Paging-structure cache: longest-prefix match, levels 1 (longest)
	// up to 3 (shortest). A hit at level L yields the guest PT page whose
	// entries are indexed by gvp.Index(L).
	startLevel := arch.PTLevels
	table := gpt.Root()
	for level := 1; level <= arch.PTLevels-1; level++ {
		lat++ // one probe per level; small SRAM
		if v, ok := w.TS.MMU.Lookup(w.vm, tstruct.MMUKey(pid, gvp.PrefixKey(level))); ok {
			w.Cnt.MMUCacheHits++
			startLevel = level
			table = arch.GPP(v)
			break
		}
		w.Cnt.MMUCacheMisses++
	}

	steps, ok := gpt.WalkFrom(gvp, startLevel, table, w.steps[:0])
	w.steps = steps[:0]
	if !ok {
		// Guest page-table hole: the simulator maps every workload page at
		// setup, so this indicates a malformed trace.
		panic("walker: guest page-table hole")
	}

	var dataGPP arch.GPP
	for _, st := range steps {
		// The guest PT page itself is a guest physical page: translate it
		// through the nested dimension before indexing it.
		_, _, nlat := w.translateGPP(st.Table, now+lat)
		lat += nlat
		// Read the guest PTE through the cache hierarchy.
		lat += w.Hier.Read(w.CPU, st.SPA, cache.KindGuestPT, now+lat)
		w.Cnt.WalkRefs++
		if st.Level > 1 {
			// Fill the paging-structure cache for the next level: it maps
			// the gvp prefix to the next guest PT page. Its co-tag is the
			// nested leaf PTE of that PT page (remapping the PT page must
			// invalidate this entry).
			src := w.srcOfNestedLeaf(st.NextGPP)
			w.fill(w.TS.MMU, tstruct.MMUKey(pid, gvp.PrefixKey(st.Level-1)), uint64(st.NextGPP), src, cache.KindNestedPT, true)
			w.Hier.NoteTranslationFill(w.CPU, arch.SPA(src<<3), cache.KindNestedPT)
		} else {
			dataGPP = st.NextGPP
		}
	}

	// Final nested translation of the data page.
	spp, present, nlat := w.translateGPP(dataGPP, now+lat)
	lat += nlat
	if !present {
		w.fault = Fault{PID: pid, GVP: gvp, GPP: dataGPP}
		return 0, dataGPP, lat, &w.fault
	}

	// Hardware metadata update: set the accessed bit (picked up by normal
	// cache coherence; not a remap).
	w.Nested.SetAccessed(dataGPP, true)

	// Fill the TLBs. Co-tag: the nested leaf PTE of the data page.
	leafSPA, _ := w.Nested.LeafSPA(dataGPP)
	src := uint64(leafSPA) >> 3
	key := tstruct.TLBKey(pid, gvp)
	val := packVal(spp, dataGPP)
	w.fill(w.TS.L2TLB, key, val, src, cache.KindNestedPT, true)
	w.fill(w.TS.L1TLB, key, val, src, cache.KindNestedPT, true)
	w.Hier.NoteTranslationFill(w.CPU, leafSPA, cache.KindNestedPT)
	return spp, dataGPP, lat, nil
}

// translateGPP resolves a guest physical page to a system physical page via
// the nested TLB or a 4-reference nested walk.
func (w *Walker) translateGPP(gpp arch.GPP, now arch.Cycles) (arch.SPP, bool, arch.Cycles) {
	var lat arch.Cycles = 1 // nTLB probe
	if v, ok := w.TS.NTLB.Lookup(w.vm, tstruct.NTLBKey(gpp)); ok {
		w.Cnt.NTLBHits++
		return arch.SPP(v), true, lat
	}
	w.Cnt.NTLBMisses++
	spas, ok := w.Nested.WalkSPAs(gpp)
	if !ok {
		panic("walker: nested page-table hole")
	}
	for _, spa := range spas {
		lat += w.Hier.Read(w.CPU, spa, cache.KindNestedPT, now+lat)
		w.Cnt.WalkRefs++
	}
	leaf := spas[arch.PTLevels-1]
	pte := w.Nested.Store().ReadPTE(leaf)
	if !pte.Valid() || !pte.Present() {
		return 0, false, lat
	}
	spp := arch.SPP(pte.Frame())
	w.fill(w.TS.NTLB, tstruct.NTLBKey(gpp), uint64(spp), uint64(leaf)>>3, cache.KindNestedPT, true)
	w.Hier.NoteTranslationFill(w.CPU, leaf, cache.KindNestedPT)
	return spp, true, lat
}

// srcOfNestedLeaf returns the word index of the nested leaf PTE of gpp.
func (w *Walker) srcOfNestedLeaf(gpp arch.GPP) uint64 {
	spa, ok := w.Nested.LeafSPA(gpp)
	if !ok {
		panic("walker: no nested leaf for guest PT page")
	}
	return uint64(spa) >> 3
}

// fill inserts into a translation structure, tagged with the current VM,
// and lazily notifies the directory about the displaced victim (eager mode
// demotes immediately).
func (w *Walker) fill(s *tstruct.Struct, key, val, src uint64, kind cache.IsPTKind, notify bool) {
	victim, evicted := s.Fill(w.vm, key, val, src, uint8(kind))
	if evicted && notify {
		w.Hier.NoteTranslationEviction(w.CPU, arch.SPA(victim.Src<<3), cache.IsPTKind(victim.Kind))
	}
}
