package tstruct

import (
	"slices"
	"testing"
	"testing/quick"

	"hatric/internal/arch"
	"hatric/internal/xrand"
)

func TestFillLookup(t *testing.T) {
	s := New("tlb", 8, 2)
	if _, ok := s.Lookup(0, 1); ok {
		t.Fatal("empty hit")
	}
	s.Fill(0, 1, 100, 0x40, 0)
	v, ok := s.Lookup(0, 1)
	if !ok || v != 100 {
		t.Fatalf("lookup: %d %v", v, ok)
	}
	e, ok := s.LookupEntry(0, 1)
	if !ok || e.Src != 0x40 {
		t.Fatalf("LookupEntry: %+v %v", e, ok)
	}
}

func TestFillUpdatesInPlace(t *testing.T) {
	s := New("tlb", 8, 2)
	s.Fill(0, 1, 100, 11, 0)
	if _, ev := s.Fill(0, 1, 200, 22, 1); ev {
		t.Fatal("update evicted")
	}
	e, _ := s.LookupEntry(0, 1)
	if e.Val != 200 || e.Src != 22 || e.Kind != 1 {
		t.Errorf("update lost: %+v", e)
	}
}

func TestLRUVictim(t *testing.T) {
	s := New("tlb", 2, 2) // one set, two ways
	s.Fill(0, 1, 10, 0, 0)
	s.Fill(0, 2, 20, 0, 0)
	s.Lookup(0, 1)
	v, ev := s.Fill(0, 3, 30, 0, 0)
	if !ev || v.Key != 2 {
		t.Fatalf("victim %+v (evicted=%v), want key 2", v, ev)
	}
}

func TestInvalidateKey(t *testing.T) {
	s := New("tlb", 8, 2)
	s.Fill(0, 5, 50, 0, 0)
	if !s.InvalidateKey(0, 5) {
		t.Fatal("InvalidateKey missed")
	}
	if _, ok := s.Lookup(0, 5); ok {
		t.Errorf("entry survived")
	}
	if s.InvalidateKey(0, 5) {
		t.Errorf("double invalidation succeeded")
	}
}

func TestInvalidateMaskedLineGranularity(t *testing.T) {
	s := New("tlb", 16, 4)
	// Three entries: two sourced from PTEs in the same cache line (word
	// indices 8..15 share line 1), one from another line.
	s.Fill(0, 1, 10, 8, 0)                       // line 1
	s.Fill(0, 2, 20, 15, 0)                      // line 1
	s.Fill(0, 3, 30, 16, 0)                      // line 2
	n := s.InvalidateMasked(0, 9, 3, ^uint64(0)) // any word in line 1
	if n != 2 {
		t.Fatalf("line-granular invalidation dropped %d, want 2", n)
	}
	if _, ok := s.Lookup(0, 3); !ok {
		t.Errorf("unrelated line collateral-damaged")
	}
}

func TestInvalidateMaskedExact(t *testing.T) {
	s := New("tlb", 16, 4)
	s.Fill(0, 1, 10, 8, 0)
	s.Fill(0, 2, 20, 9, 0) // same line, different PTE
	n := s.InvalidateMasked(0, 8, 0, ^uint64(0))
	if n != 1 {
		t.Fatalf("exact invalidation dropped %d, want 1", n)
	}
	if _, ok := s.Lookup(0, 2); !ok {
		t.Errorf("sibling PTE entry dropped under exact matching")
	}
}

func TestInvalidateMaskedAliasing(t *testing.T) {
	s := New("tlb", 16, 4)
	// With a 1-byte co-tag (8 line bits), lines 1 and 257 alias.
	s.Fill(0, 1, 10, 1*8, 0)
	s.Fill(0, 2, 20, 257*8, 0)
	s.Fill(0, 3, 30, 2*8, 0)
	n := s.InvalidateMasked(0, 1*8, 3, CoTagMask(1))
	if n != 2 {
		t.Fatalf("aliased invalidation dropped %d, want 2 (the alias must go too)", n)
	}
	if _, ok := s.Lookup(0, 3); !ok {
		t.Errorf("non-aliasing line dropped")
	}
}

func TestCachesMasked(t *testing.T) {
	s := New("tlb", 8, 2)
	s.Fill(0, 1, 10, 40, 0)
	if !s.CachesMasked(0, 41, 3, ^uint64(0)) {
		t.Errorf("CachesMasked missed same-line entry")
	}
	if s.CachesMasked(0, 48, 3, ^uint64(0)) {
		t.Errorf("CachesMasked false positive")
	}
}

func TestFlushCounts(t *testing.T) {
	s := New("tlb", 8, 2)
	s.Fill(0, 1, 1, 0, 0)
	s.Fill(0, 2, 2, 0, 0)
	if n := s.Flush(); n != 2 {
		t.Errorf("flush lost %d", n)
	}
	if s.ValidCount() != 0 {
		t.Errorf("entries survive flush")
	}
	if s.Flushes != 1 || s.FlushedEntries != 2 {
		t.Errorf("flush stats: %d %d", s.Flushes, s.FlushedEntries)
	}
}

func TestCompareEnergyCounting(t *testing.T) {
	s := New("tlb", 8, 2)
	s.Fill(0, 1, 1, 8, 0)
	s.Fill(0, 2, 2, 16, 0)
	before := s.CoTagCompares
	s.InvalidateMasked(0, 8, 3, ^uint64(0))
	if s.CoTagCompares != before+2 {
		t.Errorf("every valid entry must be compared: %d", s.CoTagCompares-before)
	}
}

func TestCoTagMask(t *testing.T) {
	if CoTagMask(1) != 0xFF {
		t.Errorf("1B mask = %#x", CoTagMask(1))
	}
	if CoTagMask(2) != 0x3FFF {
		t.Errorf("2B mask = %#x", CoTagMask(2))
	}
	if CoTagMask(3) != 0x3FFFFF {
		t.Errorf("3B mask = %#x", CoTagMask(3))
	}
	if CoTagMask(0) != ^uint64(0) || CoTagMask(7) != ^uint64(0) {
		t.Errorf("degenerate widths should be exact")
	}
}

// Property: masked invalidation scoped to one of three VMs drops exactly
// that VM's entries whose masked line index matches, keeps every other
// entry, and charges one compare per valid entry of every VM.
func TestInvalidateMaskedProperty(t *testing.T) {
	f := func(srcs []uint16, vms []uint8, target uint16, width, vmSel uint8) bool {
		s := New("tlb", 64, 4)
		mask := CoTagMask(int(width%3) + 1)
		vm := int(vmSel % 3)
		for i, src := range srcs {
			if i >= 30 {
				break
			}
			owner := 0
			if i < len(vms) {
				owner = int(vms[i] % 3)
			}
			s.Fill(owner, uint64(i), uint64(i), uint64(src), 0)
		}
		want := 0
		var kept []Entry
		s.ForEachValid(func(e Entry) {
			if int(e.VM) == vm && (e.Src>>3)&mask == (uint64(target)>>3)&mask {
				want++
			} else {
				kept = append(kept, e)
			}
		})
		valid := s.ValidCount()
		before := s.CoTagCompares
		if got := s.InvalidateMasked(vm, uint64(target), 3, mask); got != want {
			return false
		}
		if s.CoTagCompares-before != uint64(valid) || s.ValidCount() != len(kept) {
			return false
		}
		for _, e := range kept {
			if _, hit := s.Peek(int(e.VM), e.Key); !hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCPUSetFlushAll(t *testing.T) {
	cs := NewCPUSet(arch.DefaultTLBConfig())
	cs.L1TLB.Fill(0, 1, 1, 0, 0)
	cs.L2TLB.Fill(0, 2, 2, 0, 0)
	cs.NTLB.Fill(0, 3, 3, 0, 0)
	cs.MMU.Fill(0, 4, 4, 0, 0)
	tlb, mmu, ntlb := cs.FlushAll()
	if tlb != 2 || mmu != 1 || ntlb != 1 {
		t.Errorf("FlushAll: %d %d %d", tlb, mmu, ntlb)
	}
	if cs.ValidTotal() != 0 {
		t.Errorf("entries survive FlushAll")
	}
}

func TestCPUSetSizes(t *testing.T) {
	cfg := arch.DefaultTLBConfig()
	cs := NewCPUSet(cfg)
	if cs.L1TLB.Capacity() != 64 || cs.L2TLB.Capacity() != 512 ||
		cs.NTLB.Capacity() != 32 || cs.MMU.Capacity() != 48 {
		t.Errorf("paper sizes: %d %d %d %d",
			cs.L1TLB.Capacity(), cs.L2TLB.Capacity(), cs.NTLB.Capacity(), cs.MMU.Capacity())
	}
	cfg.SizeMultiplier = 4
	cs4 := NewCPUSet(cfg)
	if cs4.L2TLB.Capacity() != 2048 {
		t.Errorf("4x multiplier: %d", cs4.L2TLB.Capacity())
	}
	if len(cs.All()) != 4 {
		t.Errorf("All() returned %d structures", len(cs.All()))
	}
}

func TestCPUSetInvalidateAll(t *testing.T) {
	cs := NewCPUSet(arch.DefaultTLBConfig())
	cs.L1TLB.Fill(0, 1, 1, 8, 0)
	cs.L2TLB.Fill(0, 1, 1, 8, 0)
	cs.NTLB.Fill(0, 2, 2, 9, 0)
	cs.MMU.Fill(0, 3, 3, 64, 0)
	n := cs.InvalidateMaskedAll(0, 8, 3, ^uint64(0))
	if n != 3 {
		t.Errorf("dropped %d, want 3 (MMU entry from another line survives)", n)
	}
	if !cs.CachesMaskedAny(0, 64, 3, ^uint64(0)) {
		t.Errorf("MMU entry should remain")
	}
}

// TestVMTagQualifiesLookups is the VPID-isolation property at the
// structure level: a lookup with one VM's tag never returns another VM's
// translation, even for bit-identical keys, and entries of different VMs
// with equal keys coexist.
func TestVMTagQualifiesLookups(t *testing.T) {
	s := New("tlb", 8, 2)
	s.Fill(0, 1, 100, 0x40, 0)
	if _, ok := s.Lookup(1, 1); ok {
		t.Fatal("VM 1 lookup hit VM 0's entry")
	}
	if v, ok := s.Lookup(0, 1); !ok || v != 100 {
		t.Fatalf("VM 0 lookup: %d %v", v, ok)
	}
	// Same key, different VM: both entries live side by side.
	s.Fill(1, 1, 200, 0x80, 0)
	if v, ok := s.Lookup(0, 1); !ok || v != 100 {
		t.Errorf("VM 0 entry clobbered by VM 1 fill: %d %v", v, ok)
	}
	if v, ok := s.Lookup(1, 1); !ok || v != 200 {
		t.Errorf("VM 1 entry wrong: %d %v", v, ok)
	}
	if s.ValidCount() != 2 {
		t.Errorf("valid = %d, want both VMs' entries", s.ValidCount())
	}
	// In-place update stays within the VM.
	s.Fill(1, 1, 300, 0x80, 0)
	if v, _ := s.Lookup(0, 1); v != 100 {
		t.Errorf("VM 1 update touched VM 0's entry: %d", v)
	}
	// AnyVM matches whatever is there.
	if _, ok := s.Peek(AnyVM, 1); !ok {
		t.Errorf("AnyVM peek missed")
	}
}

// TestVMTagQualifiesInvalidations: masked invalidation and key
// invalidation scoped to one VM leave the other VM's entries alone even
// when their co-tags match the written line exactly.
func TestVMTagQualifiesInvalidations(t *testing.T) {
	s := New("tlb", 16, 4)
	s.Fill(0, 1, 10, 8, 0) // line 1, VM 0
	s.Fill(1, 2, 20, 9, 0) // line 1, VM 1
	if n := s.InvalidateMasked(0, 8, 3, ^uint64(0)); n != 1 {
		t.Fatalf("VM 0 invalidation dropped %d, want 1", n)
	}
	if _, ok := s.Lookup(1, 2); !ok {
		t.Errorf("VM 1 entry lost to VM 0's invalidation")
	}
	if s.CachesMasked(0, 8, 3, ^uint64(0)) {
		t.Errorf("VM 0 still claims the line")
	}
	if !s.CachesMasked(1, 8, 3, ^uint64(0)) {
		t.Errorf("VM 1's matching entry not reported")
	}
	s.Fill(0, 5, 50, 16, 0)
	if s.InvalidateKey(1, 5) {
		t.Errorf("VM 1 key invalidation hit VM 0's entry")
	}
	if !s.InvalidateKey(0, 5) {
		t.Errorf("VM 0 key invalidation missed its own entry")
	}
}

// TestFlushVM: the VPID-scoped flush (invept single-context) drops one
// VM's entries wholesale and spares every other VM's.
func TestFlushVM(t *testing.T) {
	s := New("tlb", 8, 2)
	s.Fill(0, 1, 1, 0, 0)
	s.Fill(0, 2, 2, 0, 0)
	s.Fill(1, 3, 3, 0, 0)
	if n := s.FlushVM(0); n != 2 {
		t.Fatalf("FlushVM(0) lost %d, want 2", n)
	}
	if _, ok := s.Lookup(1, 3); !ok {
		t.Errorf("VM 1 entry lost to VM 0's flush")
	}
	if s.Flushes != 1 || s.FlushedEntries != 2 {
		t.Errorf("flush stats: %d %d", s.Flushes, s.FlushedEntries)
	}
	// The CPUSet variant covers all four structures.
	cs := NewCPUSet(arch.DefaultTLBConfig())
	cs.L1TLB.Fill(0, 1, 1, 0, 0)
	cs.L2TLB.Fill(0, 1, 1, 0, 0)
	cs.NTLB.Fill(1, 2, 2, 0, 0)
	cs.MMU.Fill(0, 3, 3, 0, 0)
	tlb, mmu, ntlb := cs.FlushVMAll(0)
	if tlb != 2 || mmu != 1 || ntlb != 0 {
		t.Errorf("FlushVMAll: %d %d %d", tlb, mmu, ntlb)
	}
	if cs.ValidTotal() != 1 {
		t.Errorf("VM 1's nTLB entry should survive, valid = %d", cs.ValidTotal())
	}
}

func TestKeys(t *testing.T) {
	if TLBKey(1, 2) == TLBKey(2, 1) {
		t.Errorf("TLB keys must separate processes")
	}
	if MMUKey(1, 5) == MMUKey(2, 5) {
		t.Errorf("MMU keys must separate processes")
	}
	if NTLBKey(7) != 7 {
		t.Errorf("nTLB key is the GPP")
	}
}

// checkInvariants asserts the occupancy summaries every sweep relies on:
// the structure-wide valid count is the sum of the per-set counts, each
// per-set count matches the set's valid ways, every valid entry's bit is
// in its set's signature, and an empty set's signature is zero.
func checkInvariants(t *testing.T, s *Struct) {
	t.Helper()
	total := 0
	for set := 0; set < s.sets; set++ {
		n := 0
		for i := set * s.ways; i < (set+1)*s.ways; i++ {
			if s.vms[i] < 0 {
				continue
			}
			n++
			if s.sigs[set]&sigBit(s.srcs[i]) == 0 {
				t.Fatalf("%s set %d: entry %d (src %#x) missing from signature %#x",
					s.name, set, i, s.srcs[i], s.sigs[set])
			}
		}
		if int(s.vcnt[set]) != n {
			t.Fatalf("%s set %d: vcnt %d, %d valid ways", s.name, set, s.vcnt[set], n)
		}
		if n == 0 && s.sigs[set] != 0 {
			t.Fatalf("%s set %d: empty set has signature %#x", s.name, set, s.sigs[set])
		}
		total += n
	}
	if s.valid != total {
		t.Fatalf("%s: valid %d, sum of vcnt %d", s.name, s.valid, total)
	}
}

// The reference oracle: the capacity-bound sweeps as they were before the
// structure-wide valid count and the per-set signatures existed. They read
// and write only the entry arrays and the per-set counts, so a Struct
// driven through them keeps a stale valid count and stale signatures,
// which nothing on the reference side reads.

func refInvalidateKey(s *Struct, vm int, key uint64) bool {
	if i := s.find(vm, key); i >= 0 {
		s.vms[i] = -1
		s.vcnt[s.setOf(key)]--
		return true
	}
	return false
}

func refInvalidateMasked(s *Struct, vm int, src uint64, shift uint, mask uint64, spare bool, exceptSrc uint64) int {
	n := 0
	target := (src >> shift) & mask
	for set := 0; set < s.sets; set++ {
		if s.vcnt[set] == 0 {
			continue
		}
		base := set * s.ways
		for i := base; i < base+s.ways; i++ {
			if s.vms[i] < 0 {
				continue
			}
			s.CoTagCompares++
			if !s.vmMatch(i, vm) {
				continue
			}
			if spare && s.srcs[i] == exceptSrc {
				continue
			}
			if (s.srcs[i]>>shift)&mask == target {
				s.vms[i] = -1
				s.vcnt[set]--
				n++
			}
		}
	}
	s.CoTagInvalidations += uint64(n)
	return n
}

func refCachesMasked(s *Struct, vm int, src uint64, shift uint, mask uint64) bool {
	target := (src >> shift) & mask
	for set := 0; set < s.sets; set++ {
		if s.vcnt[set] == 0 {
			continue
		}
		base := set * s.ways
		for i := base; i < base+s.ways; i++ {
			if s.vms[i] < 0 {
				continue
			}
			s.CoTagCompares++
			if !s.vmMatch(i, vm) {
				continue
			}
			if (s.srcs[i]>>shift)&mask == target {
				return true
			}
		}
	}
	return false
}

func refUpdateMatching(s *Struct, vm int, src uint64, upd func(Entry) (uint64, bool)) int {
	n := 0
	for set := 0; set < s.sets; set++ {
		if s.vcnt[set] == 0 {
			continue
		}
		base := set * s.ways
		for i := base; i < base+s.ways; i++ {
			if s.srcs[i] != src || !s.vmMatch(i, vm) {
				continue
			}
			newVal, keep := upd(s.entryAt(i))
			if keep {
				s.vals[i] = newVal
			} else {
				s.vms[i] = -1
				s.vcnt[set]--
			}
			n++
		}
	}
	return n
}

func refFlush(s *Struct) int {
	n := 0
	for set := 0; set < s.sets; set++ {
		if s.vcnt[set] == 0 {
			continue
		}
		base := set * s.ways
		for i := base; i < base+s.ways; i++ {
			if s.vms[i] >= 0 {
				s.vms[i] = -1
				n++
			}
		}
		s.vcnt[set] = 0
	}
	s.Flushes++
	s.FlushedEntries += uint64(n)
	return n
}

func refFlushVM(s *Struct, vm int) int {
	n := 0
	for set := 0; set < s.sets; set++ {
		if s.vcnt[set] == 0 {
			continue
		}
		base := set * s.ways
		for i := base; i < base+s.ways; i++ {
			if s.vmMatch(i, vm) {
				s.vms[i] = -1
				s.vcnt[set]--
				n++
			}
		}
	}
	s.Flushes++
	s.FlushedEntries += uint64(n)
	return n
}

func refValidCount(s *Struct) int {
	n := 0
	for set := 0; set < s.sets; set++ {
		n += int(s.vcnt[set])
	}
	return n
}

// diffQueries are the co-tag compares the differential test issues: every
// CoTagMask width at line (shift 3) and exact-PTE (shift 0) granularity,
// plus compares that do not pin line bits 0-5 and so must fall back to an
// all-ones signature query.
var diffQueries = []struct {
	shift uint
	mask  uint64
}{
	{3, CoTagMask(0)}, {3, CoTagMask(1)}, {3, CoTagMask(2)}, {3, CoTagMask(3)},
	{0, CoTagMask(0)}, {0, CoTagMask(1)}, {0, CoTagMask(2)}, {0, CoTagMask(3)},
	{3, 0xF}, {4, CoTagMask(0)}, {6, CoTagMask(2)}, {1, 0x3F},
}

// TestSweepsMatchReference drives the production sweeps and the reference
// oracle with identical random operation sequences over three VMs and
// asserts identical results, counters and entries after every operation.
// Source lines are drawn so that they collide in their signature bits and
// alias under every co-tag width, and keys are drawn densely enough that
// sets fill and evict. Each shape runs in a sparse regime (frequent
// flushes: the few-entry shootdown targets the signatures are for) and a
// dense one (rare flushes: full sets, evictions, stale signature bits).
func TestSweepsMatchReference(t *testing.T) {
	shapes := []struct{ entries, ways int }{{64, 4}, {48, 4}, {8, 2}, {512, 8}}
	for _, shape := range shapes {
		for seed := uint64(1); seed <= 3; seed++ {
			diffRun(t, shape.entries, shape.ways, seed, 3000, 100)
			if ev := diffRun(t, shape.entries, shape.ways, seed, 6000, 1); ev == 0 {
				t.Fatalf("%d-entry %d-way seed %d: dense run never evicted", shape.entries, shape.ways, seed)
			}
		}
	}
}

// diffRun runs ops random operations against a fresh production and
// reference structure, flushing with probability flushPermille/1000 per
// operation, and returns the evictions seen.
func diffRun(t *testing.T, entries, ways int, seed uint64, ops, flushPermille int) uint64 {
	t.Helper()
	rng := xrand.New(seed)
	got := New("prod", entries, ways)
	ref := New("ref", entries, ways)
	keySpace := uint64(entries * 2)
	src := func() uint64 {
		line := rng.Uint64n(24)
		switch rng.Intn(4) {
		case 0: // aliases line under a 1-byte co-tag
			line += 256 * (1 + rng.Uint64n(3))
		case 1: // aliases line under a 2-byte co-tag
			line += 16384 * (1 + rng.Uint64n(3))
		}
		return line<<3 | rng.Uint64n(8)
	}
	vmOf := func(anyOK bool) int {
		if anyOK && rng.Intn(5) == 0 {
			return AnyVM
		}
		return rng.Intn(3)
	}
	var gotVisits, refVisits []Entry
	upd := func(visits *[]Entry) func(Entry) (uint64, bool) {
		return func(e Entry) (uint64, bool) {
			*visits = append(*visits, e)
			return e.Val + 1, e.Key%3 != 0
		}
	}
	for op := 0; op < ops; op++ {
		var what string
		k := rng.Intn(20)
		if rng.Intn(1000) < flushPermille {
			k = 20 + rng.Intn(4)
		}
		switch {
		case k < 10:
			vm, key, val, s, kind := vmOf(false), rng.Uint64n(keySpace), rng.Uint64(), src(), uint8(rng.Intn(3))
			what = "Fill"
			gv, ge := got.Fill(vm, key, val, s, kind)
			rv, re := ref.Fill(vm, key, val, s, kind)
			if gv != rv || ge != re {
				t.Fatalf("seed %d op %d Fill: got %+v %v, ref %+v %v", seed, op, gv, ge, rv, re)
			}
		case k < 12:
			vm, key := vmOf(true), rng.Uint64n(keySpace)
			what = "InvalidateKey"
			if g, r := got.InvalidateKey(vm, key), refInvalidateKey(ref, vm, key); g != r {
				t.Fatalf("seed %d op %d InvalidateKey: got %v, ref %v", seed, op, g, r)
			}
		case k < 16:
			vm, s, q := vmOf(true), src(), diffQueries[rng.Intn(len(diffQueries))]
			spare := rng.Intn(3) == 0
			except := src()
			var g int
			if spare {
				what = "InvalidateMaskedExcept"
				g = got.InvalidateMaskedExcept(vm, s, q.shift, q.mask, except)
			} else {
				what = "InvalidateMasked"
				g = got.InvalidateMasked(vm, s, q.shift, q.mask)
			}
			if r := refInvalidateMasked(ref, vm, s, q.shift, q.mask, spare, except); g != r {
				t.Fatalf("seed %d op %d %s(vm %d, src %#x, %+v): got %d, ref %d", seed, op, what, vm, s, q, g, r)
			}
		case k < 18:
			vm, s, q := vmOf(true), src(), diffQueries[rng.Intn(len(diffQueries))]
			what = "CachesMasked"
			if g, r := got.CachesMasked(vm, s, q.shift, q.mask), refCachesMasked(ref, vm, s, q.shift, q.mask); g != r {
				t.Fatalf("seed %d op %d CachesMasked: got %v, ref %v", seed, op, g, r)
			}
		case k < 20:
			vm, s := vmOf(true), src()
			what = "UpdateMatching"
			gotVisits, refVisits = gotVisits[:0], refVisits[:0]
			g := got.UpdateMatching(vm, s, upd(&gotVisits))
			r := refUpdateMatching(ref, vm, s, upd(&refVisits))
			if g != r || !slices.Equal(gotVisits, refVisits) {
				t.Fatalf("seed %d op %d UpdateMatching: got %d %v, ref %d %v", seed, op, g, gotVisits, r, refVisits)
			}
		case k < 23:
			vm := vmOf(true)
			what = "FlushVM"
			if g, r := got.FlushVM(vm), refFlushVM(ref, vm); g != r {
				t.Fatalf("seed %d op %d FlushVM(%d): got %d, ref %d", seed, op, vm, g, r)
			}
		default:
			what = "Flush"
			if g, r := got.Flush(), refFlush(ref); g != r {
				t.Fatalf("seed %d op %d Flush: got %d, ref %d", seed, op, g, r)
			}
		}
		if got.CoTagCompares != ref.CoTagCompares || got.CoTagInvalidations != ref.CoTagInvalidations ||
			got.Flushes != ref.Flushes || got.FlushedEntries != ref.FlushedEntries ||
			got.Fills != ref.Fills || got.Evictions != ref.Evictions {
			t.Fatalf("%d-entry %d-way seed %d op %d (%s): counters diverged:\n got %+v\n ref %+v",
				entries, ways, seed, op, what, statsOf(got), statsOf(ref))
		}
		if got.ValidCount() != refValidCount(ref) {
			t.Fatalf("seed %d op %d (%s): ValidCount %d, ref %d", seed, op, what, got.ValidCount(), refValidCount(ref))
		}
		for i := range got.vms {
			if got.entryAt(i) != ref.entryAt(i) {
				t.Fatalf("seed %d op %d (%s): entry %d got %+v, ref %+v", seed, op, what, i, got.entryAt(i), ref.entryAt(i))
			}
		}
		checkInvariants(t, got)
	}
	return got.Evictions
}

func statsOf(s *Struct) [6]uint64 {
	return [6]uint64{s.CoTagCompares, s.CoTagInvalidations, s.Flushes, s.FlushedEntries, s.Fills, s.Evictions}
}
