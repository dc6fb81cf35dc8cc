// Package stats collects simulator event counts and provides small helpers
// for formatting result tables. Counters are plain uint64 fields so that
// hot-path increments stay allocation-free.
package stats

import "reflect"

// Counters aggregates every event class the simulator and the energy model
// care about. One Counters value exists per CPU plus one system-wide
// aggregate obtained with Add.
type Counters struct {
	// Front end.
	Instructions uint64
	MemRefs      uint64

	// Translation structures.
	L1TLBHits      uint64
	L1TLBMisses    uint64
	L2TLBHits      uint64
	L2TLBMisses    uint64
	NTLBHits       uint64
	NTLBMisses     uint64
	MMUCacheHits   uint64
	MMUCacheMisses uint64

	// Page-table walks.
	Walks    uint64
	WalkRefs uint64

	// Cache hierarchy.
	L1Hits    uint64
	L1Misses  uint64
	L2Hits    uint64
	L2Misses  uint64
	LLCHits   uint64
	LLCMisses uint64

	// Memory devices.
	HBMAccesses  uint64
	DRAMAccesses uint64
	HBMBytes     uint64
	DRAMBytes    uint64

	// Coherence.
	DirLookups            uint64
	InvalidationsSent     uint64
	SpuriousInvalidations uint64
	DirBackInvalidations  uint64
	DirDemotions          uint64

	// Translation coherence.
	CoTagCompares          uint64
	CoTagInvalidations     uint64
	CAMCompares            uint64
	CAMInvalidations       uint64
	TLBFlushes             uint64
	MMUCacheFlushes        uint64
	NTLBFlushes            uint64
	TLBEntriesLost         uint64
	MMUEntriesLost         uint64
	NTLBEntriesLost        uint64
	SelectiveInvalidations uint64
	// PrefetchUpdates counts translation entries rewritten in place by the
	// hatric-pf prefetching extension instead of being invalidated.
	PrefetchUpdates uint64
	// CrossVMFiltered counts coherence relays for another VM's page-table
	// lines that the VM-qualified (VPID-style) translation structures
	// ignored. Nonzero values mean a relay crossed a VM boundary and was
	// correctly filtered; VM A's remaps never cost VM B anything.
	CrossVMFiltered uint64

	// Virtualization events.
	VMExits    uint64
	IPIs       uint64
	Interrupts uint64

	// vCPU scheduling (time-sliced machines with more vCPUs than physical
	// CPUs; all zero under 1:1 pinning).
	//
	// VCPUSwitches counts context switches between vCPUs on a physical
	// CPU. SwitchFlushes counts the full translation-structure flushes the
	// flush-on-switch baseline performs at cross-VM switches (zero with
	// VPID-tagged structures). DescheduledStallCycles accumulates the
	// cycles shootdown initiators spend waiting for descheduled target
	// vCPUs to be scheduled again and acknowledge — the overcommit cost
	// software translation coherence pays and hardware coherence never
	// does (its invalidations need no vCPU to execute).
	VCPUSwitches           uint64
	SwitchFlushes          uint64
	DescheduledStallCycles uint64

	// Translation-coherence initiation. RemapsInitiated counts remaps of
	// possibly-cached translations (evictions, defrag moves, migration
	// copies); ShootdownCycles accumulates the initiator-side cycles the
	// protocol charged for them (IPI loops, acknowledgment waits,
	// descheduled-target stalls — zero under HATRIC and ideal).
	RemapsInitiated uint64
	ShootdownCycles uint64

	// Hypervisor paging.
	PageFaults     uint64
	PageMigrations uint64
	PageEvictions  uint64
	PagePrefetches uint64
	DefragRemaps   uint64
	PTEWrites      uint64

	// Per-VM QoS eviction pressure. CrossVMEvictions counts evictions
	// whose victim frame belonged to a VM other than the one the reclaim
	// served (inter-VM capacity stealing; the quota machinery bounds it).
	// FrozenVMSteals counts the critical-path fallback that takes a frame
	// from a VM frozen mid-migration — benign for an evacuation, but
	// never silent. Both land on the initiating CPU's counters; the
	// per-victim-VM view is sim.Result.QoS / hv.VMQoSReport.
	CrossVMEvictions uint64
	FrozenVMSteals   uint64

	// Live migration (whole-VM moves between tiers or hosts). All five
	// land on the driver vCPU's counters except where noted.
	MigrationRounds         uint64
	MigrationPagesCopied    uint64
	MigrationRedirtied      uint64 // charged to the writing vCPU
	MigrationDowntimeCycles uint64
	MigrationsCompleted     uint64

	// StaleTranslationUses counts translations served from a TLB that no
	// longer match the page table. Correct coherence keeps this at zero;
	// the integration tests assert it.
	StaleTranslationUses uint64

	// Memory-management storms (KSM dedup, ballooning, THP compaction).
	// KSMMerges counts pages merged into shared copy-on-write frames (one
	// coherent remap each, charged to the scanning CPU); KSMBreaks counts
	// copy-on-write breaks on guest writes (one remap + frame allocation
	// each, charged to the writing CPU). BalloonReclaims counts frames a
	// balloon inflation reclaimed through the quota-aware eviction path
	// (driver vCPU). CompactionMoves counts live die-stacked pages the
	// compaction daemon relocated (triggering CPU). New fields stay at the
	// end of the struct: the golden-fingerprint formatter relies on the
	// legacy field order staying a stable prefix.
	KSMMerges       uint64
	KSMBreaks       uint64
	BalloonReclaims uint64
	CompactionMoves uint64

	// Fault injection and recovery (internal/faults; all six stay zero —
	// and the fingerprints frozen — unless sim.Options.Faults enables a
	// fault site). IPIsLost counts shootdown IPIs lost in delivery and
	// ShootdownRetries the timeout-triggered re-sends (both on the
	// initiator). AcksLost counts invalidation-relay acknowledgments lost
	// and RelayReissues the directory's reissues after AckTimeoutCycles
	// (both on the target CPU). MigrationLinkRetries counts migration pump
	// quanta that found the link down and backed off (driver vCPU).
	// BalloonReturns counts frames a balloon deflation handed back to the
	// VM through the re-fault path (driver vCPU).
	IPIsLost             uint64
	ShootdownRetries     uint64
	AcksLost             uint64
	RelayReissues        uint64
	MigrationLinkRetries uint64
	BalloonReturns       uint64
}

// Add accumulates o into c.
func (c *Counters) Add(o *Counters) {
	c.Instructions += o.Instructions
	c.MemRefs += o.MemRefs
	c.L1TLBHits += o.L1TLBHits
	c.L1TLBMisses += o.L1TLBMisses
	c.L2TLBHits += o.L2TLBHits
	c.L2TLBMisses += o.L2TLBMisses
	c.NTLBHits += o.NTLBHits
	c.NTLBMisses += o.NTLBMisses
	c.MMUCacheHits += o.MMUCacheHits
	c.MMUCacheMisses += o.MMUCacheMisses
	c.Walks += o.Walks
	c.WalkRefs += o.WalkRefs
	c.L1Hits += o.L1Hits
	c.L1Misses += o.L1Misses
	c.L2Hits += o.L2Hits
	c.L2Misses += o.L2Misses
	c.LLCHits += o.LLCHits
	c.LLCMisses += o.LLCMisses
	c.HBMAccesses += o.HBMAccesses
	c.DRAMAccesses += o.DRAMAccesses
	c.HBMBytes += o.HBMBytes
	c.DRAMBytes += o.DRAMBytes
	c.DirLookups += o.DirLookups
	c.InvalidationsSent += o.InvalidationsSent
	c.SpuriousInvalidations += o.SpuriousInvalidations
	c.DirBackInvalidations += o.DirBackInvalidations
	c.DirDemotions += o.DirDemotions
	c.CoTagCompares += o.CoTagCompares
	c.CoTagInvalidations += o.CoTagInvalidations
	c.CAMCompares += o.CAMCompares
	c.CAMInvalidations += o.CAMInvalidations
	c.TLBFlushes += o.TLBFlushes
	c.MMUCacheFlushes += o.MMUCacheFlushes
	c.NTLBFlushes += o.NTLBFlushes
	c.TLBEntriesLost += o.TLBEntriesLost
	c.MMUEntriesLost += o.MMUEntriesLost
	c.NTLBEntriesLost += o.NTLBEntriesLost
	c.SelectiveInvalidations += o.SelectiveInvalidations
	c.PrefetchUpdates += o.PrefetchUpdates
	c.CrossVMFiltered += o.CrossVMFiltered
	c.VMExits += o.VMExits
	c.IPIs += o.IPIs
	c.Interrupts += o.Interrupts
	c.VCPUSwitches += o.VCPUSwitches
	c.SwitchFlushes += o.SwitchFlushes
	c.DescheduledStallCycles += o.DescheduledStallCycles
	c.RemapsInitiated += o.RemapsInitiated
	c.ShootdownCycles += o.ShootdownCycles
	c.PageFaults += o.PageFaults
	c.PageMigrations += o.PageMigrations
	c.PageEvictions += o.PageEvictions
	c.PagePrefetches += o.PagePrefetches
	c.DefragRemaps += o.DefragRemaps
	c.PTEWrites += o.PTEWrites
	c.CrossVMEvictions += o.CrossVMEvictions
	c.FrozenVMSteals += o.FrozenVMSteals
	c.MigrationRounds += o.MigrationRounds
	c.MigrationPagesCopied += o.MigrationPagesCopied
	c.MigrationRedirtied += o.MigrationRedirtied
	c.MigrationDowntimeCycles += o.MigrationDowntimeCycles
	c.MigrationsCompleted += o.MigrationsCompleted
	c.StaleTranslationUses += o.StaleTranslationUses
	c.KSMMerges += o.KSMMerges
	c.KSMBreaks += o.KSMBreaks
	c.BalloonReclaims += o.BalloonReclaims
	c.CompactionMoves += o.CompactionMoves
	c.IPIsLost += o.IPIsLost
	c.ShootdownRetries += o.ShootdownRetries
	c.AcksLost += o.AcksLost
	c.RelayReissues += o.RelayReissues
	c.MigrationLinkRetries += o.MigrationLinkRetries
	c.BalloonReturns += o.BalloonReturns
}

// Sub subtracts o from c field by field. The time-sliced scheduler uses it
// to attribute a quantum's counter delta to the VM that ran: snapshot at
// switch-in, subtract at switch-out. Implemented by reflection over the
// uint64 fields so it can never drift from the struct definition (Add is
// kept hand-written for the hot aggregation path; the stats tests assert
// the two agree on every field).
func (c *Counters) Sub(o *Counters) {
	cv := reflect.ValueOf(c).Elem()
	ov := reflect.ValueOf(o).Elem()
	for i := 0; i < cv.NumField(); i++ {
		f := cv.Field(i)
		f.SetUint(f.Uint() - ov.Field(i).Uint())
	}
}

// Reset zeroes every counter.
func (c *Counters) Reset() { *c = Counters{} }
