package tstruct

import (
	"testing"

	"hatric/internal/arch"
)

func BenchmarkTLBLookupHit(b *testing.B) {
	s := New("l2tlb", 512, 8)
	for i := uint64(0); i < 512; i++ {
		s.Fill(0, i, i, i*8, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Lookup(0, uint64(i)&511)
	}
}

func BenchmarkTLBLookupMiss(b *testing.B) {
	s := New("l2tlb", 512, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Lookup(0, uint64(i))
	}
}

func BenchmarkTLBFill(b *testing.B) {
	s := New("l2tlb", 512, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Fill(0, uint64(i), uint64(i), uint64(i), 0)
	}
}

// BenchmarkCoTagInvalidation measures the full-structure co-tag compare —
// HATRIC's per-invalidation hardware action, and the simulator's hot path
// during remap storms.
func BenchmarkCoTagInvalidation(b *testing.B) {
	cs := NewCPUSet(arch.DefaultTLBConfig())
	for i := uint64(0); i < 512; i++ {
		cs.L2TLB.Fill(0, i, i, i*8, 0)
	}
	mask := CoTagMask(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.InvalidateMaskedAll(0, uint64(i)*8, 3, mask)
	}
}

func BenchmarkFlushAll(b *testing.B) {
	cs := NewCPUSet(arch.DefaultTLBConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := uint64(0); j < 64; j++ {
			cs.L2TLB.Fill(0, j, j, j, 0)
		}
		cs.FlushAll()
	}
}

// BenchmarkFlushVMSparse measures a software shootdown's VPID-scoped flush
// at a target CPU that holds only 0-4 entries, the common case once every
// CPU of a VM is flushed at each remap.
func BenchmarkFlushVMSparse(b *testing.B) {
	cs := NewCPUSet(arch.DefaultTLBConfig())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := uint64(0); j < uint64(i%5); j++ {
			cs.L1TLB.Fill(0, j, j, j*8, 0)
			cs.L2TLB.Fill(0, j, j, j*8, 0)
		}
		cs.FlushVMAll(0)
	}
}

// BenchmarkCoTagInvalidationSparse measures HATRIC's co-tag
// compare-and-invalidate at a relay target holding a handful of entries,
// none from the written line: the common relay, which drops nothing.
func BenchmarkCoTagInvalidationSparse(b *testing.B) {
	cs := NewCPUSet(arch.DefaultTLBConfig())
	for j := uint64(0); j < 4; j++ {
		cs.L1TLB.Fill(0, j, j, (5000+j)*8, 0)
		cs.L2TLB.Fill(0, j, j, (5000+j)*8, 0)
		cs.NTLB.Fill(0, j, j, (6000+j)*8, 0)
	}
	mask := CoTagMask(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.InvalidateMaskedAll(0, uint64(i&1023)*8, 3, mask)
	}
}
