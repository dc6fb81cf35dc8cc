package arch

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPageRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 0xfff, 0x1000, 0x1fff, 0xdeadbeef000, 0x7fffffffffff}
	for _, a := range cases {
		gva := GVA(a)
		if got := gva.Page().Addr() + GVA(gva.Offset()); got != gva {
			t.Errorf("GVA %#x: page+offset = %#x", a, uint64(got))
		}
	}
}

func TestPageRoundTripProperty(t *testing.T) {
	f := func(a uint64) bool {
		a &= (1 << 48) - 1
		spa := SPA(a)
		back := spa.Page().Addr() + SPA(a&(PageSize-1))
		return back == spa
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLineAlignment(t *testing.T) {
	f := func(a uint64) bool {
		a &= (1 << 48) - 1
		spa := SPA(a)
		line := spa.Line()
		return uint64(line)%LineSize == 0 && line <= spa && spa-line < LineSize &&
			line.LineIndex() == uint64(spa)>>LineShift
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexReconstruction(t *testing.T) {
	// The four radix indices must reconstruct the page number.
	f := func(p uint64) bool {
		p &= (1 << (LevelBits * PTLevels)) - 1
		gvp := GVP(p)
		var back uint64
		for level := PTLevels; level >= 1; level-- {
			back = back<<LevelBits | gvp.Index(level)
		}
		return back == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexRange(t *testing.T) {
	f := func(p uint64, level uint8) bool {
		l := int(level)%PTLevels + 1
		return GVP(p).Index(l) < EntriesPerTable && GPP(p).Index(l) < EntriesPerTable
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPrefixKeyDistinguishesLevels(t *testing.T) {
	gvp := GVP(0x12345)
	seen := map[uint64]bool{}
	for level := 1; level <= PTLevels; level++ {
		k := gvp.PrefixKey(level)
		if seen[k] {
			t.Errorf("duplicate prefix key at level %d", level)
		}
		seen[k] = true
	}
}

func TestPrefixKeySharedPrefix(t *testing.T) {
	// Two pages in the same 2 MB region share the level-1 table prefix.
	a, b := GVP(0x200), GVP(0x201)
	if a.PrefixKey(1) != b.PrefixKey(1) {
		t.Errorf("neighbors should share level-1 prefix")
	}
	// Pages in different 2 MB regions must not.
	c := GVP(0x400)
	if a.PrefixKey(1) == c.PrefixKey(1) {
		t.Errorf("distinct regions share level-1 prefix")
	}
}

func TestGeometryConstants(t *testing.T) {
	if PTEsPerLine != 8 {
		t.Errorf("PTEsPerLine = %d, want 8", PTEsPerLine)
	}
	if EntriesPerTable != 512 {
		t.Errorf("EntriesPerTable = %d", EntriesPerTable)
	}
	if LinesPerPage != 64 {
		t.Errorf("LinesPerPage = %d", LinesPerPage)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.NumCPUs = 0 },
		func(c *Config) { c.NumCPUs = 65 },
		func(c *Config) { c.TLB.SizeMultiplier = 0 },
		func(c *Config) { c.TLB.CoTagBytes = 4 },
		func(c *Config) { c.Mem.DRAMFrames = 0 },
		func(c *Config) { c.Mem.HBMBytesPerCycle = 0 },
		func(c *Config) { c.Mem.DRAMBytesPerCycle = 0 },
		func(c *Config) { c.Mem.DRAMBytesPerCycle = math.NaN() },
		func(c *Config) { c.L1.SizeBytes = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestCacheConfigSets(t *testing.T) {
	c := CacheConfig{SizeBytes: 32 << 10, Ways: 8}
	if got := c.Sets(); got != 64 {
		t.Errorf("Sets() = %d, want 64", got)
	}
	tiny := CacheConfig{SizeBytes: 64, Ways: 8}
	if got := tiny.Sets(); got != 1 {
		t.Errorf("tiny Sets() = %d, want 1", got)
	}
}

func TestCostModels(t *testing.T) {
	kvm := KVMCostModel()
	xen := XenCostModel()
	if kvm.VMExit != 1300 {
		t.Errorf("paper reports ~1300-cycle VM exits; model has %d", kvm.VMExit)
	}
	if kvm.Interrupt != 640 {
		t.Errorf("paper reports ~640-cycle interrupts; model has %d", kvm.Interrupt)
	}
	if xen.VMExit <= kvm.VMExit {
		t.Errorf("Xen exits should be costlier than KVM's")
	}
	if kvm.Interrupt >= kvm.VMExit {
		t.Errorf("interrupts must be cheaper than VM exits (Sec. 3.3)")
	}
}

func TestTierString(t *testing.T) {
	if TierHBM.String() != "hbm" || TierDRAM.String() != "dram" {
		t.Errorf("tier names wrong: %v %v", TierHBM, TierDRAM)
	}
	if MemTier(9).String() != "unknown-tier" {
		t.Errorf("unknown tier name")
	}
}
