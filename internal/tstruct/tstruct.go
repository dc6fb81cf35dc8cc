// Package tstruct implements the per-CPU translation structures: L1 and L2
// TLBs (guest virtual page -> system physical page), the paging-structure
// MMU cache (guest virtual prefix -> guest page-table page), and the nested
// TLB (guest physical page -> system physical page).
//
// Every entry carries a HATRIC co-tag: bits of the system physical address
// of the page-table entry the translation was filled from. The simulator
// stores the full source line index per entry and applies the configured
// co-tag mask at invalidation time, which models co-tag aliasing exactly:
// an invalidation for line L drops every entry whose masked line index
// equals L's, including unlucky entries from other lines.
//
// Every entry also carries a VM tag (the VPID/ASID of real hardware —
// Intel's VPID, AMD's ASID, Power's LPID). The tag is part of the entry's
// identity, not its set index: lookups and fills match (VM, key) pairs, so
// vCPUs of different VMs can time-share one physical CPU without flushing
// its translation structures at every world switch, and a relay or flush
// scoped to one VM never touches another VM's entries.
package tstruct

import "hatric/internal/lrurank"

// AnyVM matches every VM tag in VM-qualified operations. Invalidations use
// it when the source PTE identifies a unique owner anyway (exact-source
// updates) or when no VM owns the line.
const AnyVM = -1

// Entry is one translation-structure entry. Valid corresponds to the
// Shared coherence state of Sec. 4.2; invalid to Invalid.
//
// Src is the word index (SPA >> 3) of the page-table entry this translation
// was filled from. Real hardware stores only the truncated co-tag; the
// simulator keeps the full source and applies each protocol's granularity
// (shift) and width (mask) at compare time, which models both the
// 8-PTEs-per-line false sharing and co-tag aliasing exactly.
//
// VM is the VPID tag: the VM whose page tables the entry derives from.
type Entry struct {
	Key   uint64
	Val   uint64
	Src   uint64 // source PTE word index (SPA >> 3)
	VM    int32  // VPID tag (the owning VM's dense ID)
	Kind  uint8  // which page table the entry derives from (cache.IsPTKind)
	Valid bool
}

// Struct is one set-associative translation structure.
//
// Entry metadata lives in flat parallel arrays (keys, sources, VM tags, ...)
// instead of an []Entry: the hot compares — the (VM, key) probe of a lookup
// and the (VM, co-tag) CAM sweep of an invalidation — each walk only the two
// or three dense arrays they need.
//
// Three occupancy summaries make every sweep (Flush, FlushVM,
// InvalidateMasked, InvalidateMaskedExcept, CachesMasked, UpdateMatching)
// cost what the structure holds rather than its capacity:
//
//   - a per-set valid count, so probes of empty sets miss in O(1) and
//     sweeps skip empty sets;
//   - a structure-wide valid count (the sum of the per-set counts), so a
//     sweep of an empty structure returns in O(1), a sweep stops after the
//     last occupied set, and ValidCount is O(1);
//   - a 64-bit co-tag signature per set with bit (Src>>3)&63 — bits 0-5 of
//     the source line index — set for every valid entry. Fills OR bits in;
//     a sweep that scans a set in full rebuilds its signature from the
//     entries it leaves valid, and an emptied set's signature is zero. In
//     between it may over-approximate (an eviction leaves its victim's bit
//     behind) but never misses a valid entry's bit, so a co-tag sweep whose
//     compare pins line bits 0-5 skips every set lacking the query's bit.
//
// The modeled CAM compare count is unchanged: a sweep still charges one
// CoTagCompares per valid entry of every set it passes, skipped or
// scanned, and visits sets in index order, so CachesMasked's early exit
// and UpdateMatching's visit order are exactly those of a full scan.
//
// Recency is exact rank-based LRU (see internal/lrurank): identical
// victims to a per-touch-timestamp scheme at a fraction of the footprint.
type Struct struct {
	name string
	sets int
	ways int
	// setMask is sets-1 when the set count is a power of two (every hot
	// structure: L1/L2 TLB, nested TLB), letting setOf mask instead of
	// divide; -1 selects the modulo path (e.g. the 12-set MMU cache).
	setMask int
	// rankStride is ways rounded up to a multiple of 8: rank rows are
	// word-aligned so touch can update a whole row with SWAR word ops.
	rankStride int

	keys  []uint64
	vals  []uint64
	srcs  []uint64
	ranks []uint8
	vms   []int32 // owning VM per entry; -1 marks an invalid way
	kinds []uint8
	vcnt  []int32  // valid entries per set
	sigs  []uint64 // co-tag signature per set (see sigBit)
	valid int      // valid entries in the whole structure: the sum of vcnt

	// Stats
	Hits               uint64
	Misses             uint64
	Fills              uint64
	Evictions          uint64
	FlushedEntries     uint64
	Flushes            uint64
	CoTagCompares      uint64
	CoTagInvalidations uint64
}

// New builds a structure with the given total entries and associativity.
// The set count is totalEntries/ways exactly (translation structures come
// in non-power-of-two sizes, e.g. the 48-entry paging-structure cache), so
// indexing uses a modulo of a mixed key.
func New(name string, totalEntries, ways int) *Struct {
	if ways <= 0 {
		ways = 1
	}
	if totalEntries < ways {
		totalEntries = ways
	}
	sets := totalEntries / ways
	n := sets * ways
	stride := lrurank.Stride(ways)
	mask := -1
	if sets&(sets-1) == 0 {
		mask = sets - 1
	}
	st := &Struct{
		name:       name,
		sets:       sets,
		ways:       ways,
		setMask:    mask,
		rankStride: stride,
		keys:       make([]uint64, n),
		vals:       make([]uint64, n),
		srcs:       make([]uint64, n),
		ranks:      make([]uint8, sets*stride),
		vms:        make([]int32, n),
		kinds:      make([]uint8, n),
		vcnt:       make([]int32, sets),
		sigs:       make([]uint64, sets),
	}
	for i := range st.vms {
		st.vms[i] = -1
	}
	for set := 0; set < sets; set++ {
		lrurank.Init(st.ranks[set*stride:(set+1)*stride], ways)
	}
	return st
}

// touch marks way w of the set with rank row rbase as most recently used.
func (s *Struct) touch(rbase, w int) {
	lrurank.Touch(s.ranks[rbase:rbase+s.rankStride], w)
}

// Name returns the structure's name.
func (s *Struct) Name() string { return s.name }

// Capacity returns the number of entries.
func (s *Struct) Capacity() int { return s.sets * s.ways }

// setOf returns the set index for key. The mask path is bit-identical to
// the modulo for power-of-two set counts.
func (s *Struct) setOf(key uint64) int {
	if s.setMask >= 0 {
		return int(mix(key) & uint64(s.setMask))
	}
	return int(mix(key) % uint64(s.sets))
}

// mix spreads structured keys (page numbers, prefix keys) across sets.
// The VM tag deliberately does not participate: like the VPID on real
// hardware, it extends the tag compare, not the index, so a VM's entries
// land in the same sets regardless of how many VMs share the structure.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return x
}

// vmMatch reports whether the entry at index i is valid and belongs to vm.
// Invalid ways carry VM tag -1, which AnyVM (-1) must not match, so the
// validity test is part of the compare.
func (s *Struct) vmMatch(i, vm int) bool {
	t := s.vms[i]
	return t >= 0 && (vm == AnyVM || int(t) == vm)
}

// find returns the index of vm's valid entry for key, or -1. The empty-set
// shortcut makes misses in cold sets O(1). For a concrete VM the probe is a
// single (key, vm) compare per way — invalid ways hold VM tag -1 and can
// never match a real id; AnyVM probes accept any valid way.
func (s *Struct) find(vm int, key uint64) int {
	return s.findIn(s.setOf(key), vm, key)
}

// entryAt materializes the entry at index i.
func (s *Struct) entryAt(i int) Entry {
	return Entry{
		Key: s.keys[i], Val: s.vals[i], Src: s.srcs[i],
		VM: s.vms[i], Kind: s.kinds[i], Valid: s.vms[i] >= 0,
	}
}

// findIn is find with the set index already computed, so the hot lookups
// mix the key once for both the probe and the LRU touch.
func (s *Struct) findIn(set, vm int, key uint64) int {
	if s.vcnt[set] == 0 {
		return -1
	}
	base := set * s.ways
	keys := s.keys[base : base+s.ways]
	vms := s.vms[base : base+s.ways]
	if vm != AnyVM {
		v32 := int32(vm)
		for i := range keys {
			if keys[i] == key && vms[i] == v32 {
				return base + i
			}
		}
		return -1
	}
	for i := range keys {
		if keys[i] == key && vms[i] >= 0 {
			return base + i
		}
	}
	return -1
}

// Lookup probes for (vm, key); a hit refreshes LRU state. Entries of other
// VMs never hit, however equal their keys — the VPID-qualification that
// makes time-slicing vCPUs of different VMs onto one CPU safe.
//
//hatric:hotpath
func (s *Struct) Lookup(vm int, key uint64) (uint64, bool) {
	set := s.setOf(key)
	if i := s.findIn(set, vm, key); i >= 0 {
		s.touch(set*s.rankStride, i-set*s.ways)
		s.Hits++
		return s.vals[i], true
	}
	s.Misses++
	return 0, false
}

// LookupEntry probes for (vm, key) and returns the whole entry on a hit,
// refreshing LRU state. Callers that need the co-tag (L2 to L1 refills)
// use this instead of Lookup.
//
//hatric:hotpath
func (s *Struct) LookupEntry(vm int, key uint64) (Entry, bool) {
	set := s.setOf(key)
	if i := s.findIn(set, vm, key); i >= 0 {
		s.touch(set*s.rankStride, i-set*s.ways)
		s.Hits++
		return s.entryAt(i), true
	}
	s.Misses++
	return Entry{}, false
}

// Peek probes without touching LRU or stats.
//
//hatric:hotpath
func (s *Struct) Peek(vm int, key uint64) (uint64, bool) {
	if i := s.find(vm, key); i >= 0 {
		return s.vals[i], true
	}
	return 0, false
}

// setEntry overwrites index i of set with a fresh valid entry.
func (s *Struct) setEntry(set, i int, vm int, key, val, src uint64, kind uint8) {
	s.keys[i] = key
	s.vals[i] = val
	s.srcs[i] = src
	s.vms[i] = int32(vm)
	s.kinds[i] = kind
	s.sigs[set] |= sigBit(src)
}

// sigBit is source word src's bit in a set signature: bits 0-5 of its
// line index.
func sigBit(src uint64) uint64 { return 1 << ((src >> 3) & 63) }

// sigWant returns the signature bit every entry matching the masked
// compare against src must carry. A compare that does not pin line bits
// 0-5 (a shift past 3, or a mask narrower than those bits) gets all ones,
// which no occupied set lacks.
func sigWant(src uint64, shift uint, mask uint64) uint64 {
	if shift <= 3 && (mask>>(3-shift))&63 == 63 {
		return sigBit(src)
	}
	return ^uint64(0)
}

// Fill inserts a translation tagged with vm. If a valid victim had to be
// displaced, it is returned so the caller can lazily (or eagerly) update
// the directory. Entries of different VMs with equal keys coexist: the
// in-place update applies only to the same VM's entry.
//
//hatric:hotpath
func (s *Struct) Fill(vm int, key, val, src uint64, kind uint8) (victim Entry, evicted bool) {
	set := s.setOf(key)
	base := set * s.ways
	rbase := set * s.rankStride
	s.Fills++
	// One scan finds the in-place hit and the first free way; the victim,
	// needed only on a full-set miss, is the way holding the highest rank.
	free := -1
	for i := base; i < base+s.ways; i++ {
		if s.vms[i] < 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		if s.keys[i] == key && s.vmMatch(i, vm) {
			s.vals[i] = val
			s.srcs[i] = src
			s.kinds[i] = kind
			s.sigs[set] |= sigBit(src)
			s.touch(rbase, i-base)
			return Entry{}, false
		}
	}
	if free >= 0 {
		s.setEntry(set, free, vm, key, val, src, kind)
		s.touch(rbase, free-base)
		s.vcnt[set]++
		s.valid++
		return Entry{}, false
	}
	lruWay := lrurank.Oldest(s.ranks[rbase:rbase+s.rankStride], s.ways)
	victim = s.entryAt(base + lruWay)
	s.setEntry(set, base+lruWay, vm, key, val, src, kind)
	s.touch(rbase, lruWay)
	s.Evictions++
	return victim, true
}

// InvalidateKey drops vm's entry for key (selective invalidation with a
// known key, e.g. invlpg with a known guest virtual page).
//
//hatric:hotpath
func (s *Struct) InvalidateKey(vm int, key uint64) bool {
	set := s.setOf(key)
	if i := s.findIn(set, vm, key); i >= 0 {
		s.vms[i] = -1
		s.valid--
		if s.vcnt[set]--; s.vcnt[set] == 0 {
			s.sigs[set] = 0
		}
		return true
	}
	return false
}

// InvalidateMasked drops every valid entry of vm matching the co-tag
// compare ((Src >> shift) & mask == (src >> shift) & mask). Shift 3
// compares at cache-line granularity (HATRIC, UNITD); shift 0 at exact-PTE
// granularity (the ideal protocol). All entries are compared (a CAM-style
// parallel compare over (VPID, co-tag) pairs) — the energy model charges
// every compare — but entries of other VMs never match, so co-tag aliasing
// cannot leak invalidations across VM boundaries. It returns the number of
// entries invalidated.
//
//hatric:hotpath
func (s *Struct) InvalidateMasked(vm int, src uint64, shift uint, mask uint64) int {
	return s.invalidateMasked(vm, src, shift, mask, false, 0)
}

// InvalidateMaskedExcept behaves like InvalidateMasked but spares entries
// whose exact source word is exceptSrc (they were just updated in place by
// the prefetch extension rather than made stale).
//
//hatric:hotpath
func (s *Struct) InvalidateMaskedExcept(vm int, src uint64, shift uint, mask, exceptSrc uint64) int {
	return s.invalidateMasked(vm, src, shift, mask, true, exceptSrc)
}

// invalidateMasked is InvalidateMasked, sparing exceptSrc when spare is
// set. The CAM compares every valid entry, so the compare count is the
// valid count whichever sets the signatures let the sweep skip.
func (s *Struct) invalidateMasked(vm int, src uint64, shift uint, mask uint64, spare bool, exceptSrc uint64) int {
	s.CoTagCompares += uint64(s.valid)
	target := (src >> shift) & mask
	want := sigWant(src, shift, mask)
	n := 0
	for set, left := 0, s.valid; left > 0; set++ {
		c := int(s.vcnt[set])
		left -= c
		if c == 0 || s.sigs[set]&want == 0 {
			continue
		}
		base := set * s.ways
		d := 0
		var sig uint64
		for i := base; i < base+s.ways; i++ {
			if s.vms[i] < 0 {
				continue
			}
			sr := s.srcs[i]
			if s.vmMatch(i, vm) && (sr>>shift)&mask == target && !(spare && sr == exceptSrc) {
				s.vms[i] = -1
				d++
				continue
			}
			sig |= sigBit(sr)
		}
		s.sigs[set] = sig
		s.vcnt[set] -= int32(d)
		n += d
	}
	s.valid -= n
	s.CoTagInvalidations += uint64(n)
	return n
}

// CachesMasked reports whether any valid entry of vm matches the masked
// compare (used by the eager directory-update ablation; counts compare
// energy up to and including the first match, in set order).
//
//hatric:hotpath
func (s *Struct) CachesMasked(vm int, src uint64, shift uint, mask uint64) bool {
	target := (src >> shift) & mask
	want := sigWant(src, shift, mask)
	for set, left := 0, s.valid; left > 0; set++ {
		c := int(s.vcnt[set])
		left -= c
		if c == 0 {
			continue
		}
		if s.sigs[set]&want != 0 {
			base := set * s.ways
			seen := uint64(0)
			var sig uint64
			for i := base; i < base+s.ways; i++ {
				if s.vms[i] < 0 {
					continue
				}
				seen++
				sr := s.srcs[i]
				if s.vmMatch(i, vm) && (sr>>shift)&mask == target {
					s.CoTagCompares += seen
					return true
				}
				sig |= sigBit(sr)
			}
			s.sigs[set] = sig
		}
		s.CoTagCompares += uint64(c)
	}
	return false
}

// UpdateMatching visits every valid entry of vm whose exact source word
// matches src and replaces its value with upd's result (or invalidates it
// when upd reports keep == false). It returns how many entries were
// touched. This is the mechanism behind the paper's Sec. 4.4 prefetching
// extension: instead of dropping a translation made stale by a remap,
// hardware can install the new mapping directly.
//
//hatric:hotpath
func (s *Struct) UpdateMatching(vm int, src uint64, upd func(Entry) (uint64, bool)) int {
	n := 0
	want := sigBit(src)
	for set, left := 0, s.valid; left > 0; set++ {
		c := int(s.vcnt[set])
		left -= c
		if c == 0 || s.sigs[set]&want == 0 {
			continue
		}
		base := set * s.ways
		d := 0
		var sig uint64
		for i := base; i < base+s.ways; i++ {
			if s.vms[i] < 0 {
				continue
			}
			if s.srcs[i] == src && s.vmMatch(i, vm) {
				n++
				newVal, keep := upd(s.entryAt(i))
				if !keep {
					s.vms[i] = -1
					d++
					continue
				}
				s.vals[i] = newVal
			}
			sig |= sigBit(s.srcs[i])
		}
		s.sigs[set] = sig
		s.vcnt[set] -= int32(d)
		s.valid -= d
	}
	return n
}

// Flush invalidates everything and returns how many entries were lost.
//
//hatric:hotpath
func (s *Struct) Flush() int { return s.FlushVM(AnyVM) }

// FlushVM invalidates only vm's entries (invept single-context / a
// VPID-scoped flush) and returns how many were lost. Other VMs' entries —
// resident because their vCPUs time-share this CPU — survive. AnyVM
// degenerates to a full flush.
//
//hatric:hotpath
func (s *Struct) FlushVM(vm int) int {
	n := 0
	for set, left := 0, s.valid; left > 0; set++ {
		c := int(s.vcnt[set])
		left -= c
		if c == 0 {
			continue
		}
		base := set * s.ways
		d := 0
		var sig uint64
		for i := base; i < base+s.ways; i++ {
			if s.vmMatch(i, vm) {
				s.vms[i] = -1
				d++
			} else if s.vms[i] >= 0 {
				sig |= sigBit(s.srcs[i])
			}
		}
		s.sigs[set] = sig
		s.vcnt[set] -= int32(d)
		n += d
	}
	s.valid -= n
	s.Flushes++
	s.FlushedEntries += uint64(n)
	return n
}

// ValidCount returns the number of valid entries.
func (s *Struct) ValidCount() int { return s.valid }

// ForEachValid visits every valid entry.
func (s *Struct) ForEachValid(fn func(e Entry)) {
	for set := 0; set < s.sets; set++ {
		if s.vcnt[set] == 0 {
			continue
		}
		base := set * s.ways
		for i := base; i < base+s.ways; i++ {
			if s.vms[i] >= 0 {
				fn(s.entryAt(i))
			}
		}
	}
}
