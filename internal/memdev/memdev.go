// Package memdev models the two-level physical memory system: fast
// die-stacked DRAM (HBM) and slow off-chip DRAM, plus the system physical
// address layout and frame allocators.
//
// Timing model: each device is a single server with an unloaded access
// latency and a service rate in bytes per cycle. Requests occupy the device
// for size/rate cycles; a request arriving while the device is busy queues.
// The top-level simulator keeps per-CPU clocks within a small skew of each
// other (min-clock-first scheduling), which keeps this single-server queue
// meaningful.
package memdev

import (
	"fmt"

	"hatric/internal/arch"
)

// Device is one memory device (HBM or off-chip DRAM).
type Device struct {
	Tier          arch.MemTier
	Latency       arch.Cycles
	BytesPerCycle float64

	busyUntil float64

	// Accesses and Bytes are served totals, consumed by the energy model.
	Accesses uint64
	Bytes    uint64
}

// NewDevice builds a device with the given timing parameters.
func NewDevice(tier arch.MemTier, latency arch.Cycles, bytesPerCycle float64) *Device {
	if bytesPerCycle <= 0 {
		panic("memdev: BytesPerCycle must be positive")
	}
	return &Device{Tier: tier, Latency: latency, BytesPerCycle: bytesPerCycle}
}

// Access simulates a request of the given size issued at time now and
// returns the total latency observed by the requester (queueing + unloaded
// latency + service time).
func (d *Device) Access(now arch.Cycles, bytes int) arch.Cycles {
	service := float64(bytes) / d.BytesPerCycle
	d.Accesses++
	d.Bytes += uint64(bytes)
	start := float64(now)
	if d.busyUntil > start {
		start = d.busyUntil
	}
	d.busyUntil = start + service
	total := (start - float64(now)) + float64(d.Latency) + service
	return arch.Cycles(total)
}

// Occupy reserves the device for a bulk transfer (page copies) without a
// requester waiting on completion; it returns the transfer time.
func (d *Device) Occupy(now arch.Cycles, bytes int) arch.Cycles {
	service := float64(bytes) / d.BytesPerCycle
	d.Accesses++
	d.Bytes += uint64(bytes)
	start := float64(now)
	if d.busyUntil > start {
		start = d.busyUntil
	}
	d.busyUntil = start + service
	return arch.Cycles(service)
}

// Reset clears queue state and counters.
func (d *Device) Reset() {
	d.busyUntil = 0
	d.Accesses = 0
	d.Bytes = 0
}

// Layout fixes the system physical address map:
//
//	[0, PT)            page-table heap (off-chip DRAM timing)
//	[PT, PT+HBM)       die-stacked DRAM data frames
//	[PT+HBM, ...+DRAM) off-chip DRAM data frames
type Layout struct {
	PTFrames   int
	HBMFrames  int
	DRAMFrames int

	HBMBase  arch.SPP
	DRAMBase arch.SPP
	End      arch.SPP
}

// NewLayout derives the address map from the memory configuration.
func NewLayout(mc arch.MemConfig) Layout {
	l := Layout{PTFrames: mc.PTFrames, HBMFrames: mc.HBMFrames, DRAMFrames: mc.DRAMFrames}
	l.HBMBase = arch.SPP(mc.PTFrames)
	l.DRAMBase = l.HBMBase + arch.SPP(mc.HBMFrames)
	l.End = l.DRAMBase + arch.SPP(mc.DRAMFrames)
	return l
}

// TierOf returns which device backs the given frame.
func (l Layout) TierOf(spp arch.SPP) arch.MemTier {
	if spp >= l.HBMBase && spp < l.DRAMBase {
		return arch.TierHBM
	}
	return arch.TierDRAM
}

// TierOfAddr returns which device backs the given address.
func (l Layout) TierOfAddr(spa arch.SPA) arch.MemTier { return l.TierOf(spa.Page()) }

// Memory bundles the devices, layout and frame allocators.
type Memory struct {
	Layout Layout
	HBM    *Device
	DRAM   *Device

	ptNext   arch.SPP
	hbmFree  []arch.SPP
	dramFree []arch.SPP
}

// New builds the memory system from the configuration.
func New(mc arch.MemConfig) *Memory {
	m := &Memory{
		Layout: NewLayout(mc),
		HBM:    NewDevice(arch.TierHBM, mc.HBMLatency, mc.HBMBytesPerCycle),
		DRAM:   NewDevice(arch.TierDRAM, mc.DRAMLatency, mc.DRAMBytesPerCycle),
	}
	m.hbmFree = make([]arch.SPP, 0, mc.HBMFrames)
	for i := mc.HBMFrames - 1; i >= 0; i-- {
		m.hbmFree = append(m.hbmFree, m.Layout.HBMBase+arch.SPP(i))
	}
	m.dramFree = make([]arch.SPP, 0, mc.DRAMFrames)
	for i := mc.DRAMFrames - 1; i >= 0; i-- {
		m.dramFree = append(m.dramFree, m.Layout.DRAMBase+arch.SPP(i))
	}
	return m
}

// Device returns the device backing the address.
func (m *Memory) Device(spa arch.SPA) *Device {
	if m.Layout.TierOfAddr(spa) == arch.TierHBM {
		return m.HBM
	}
	return m.DRAM
}

// AllocPT allocates one page-table frame from the PT heap.
func (m *Memory) AllocPT() (arch.SPP, error) {
	if int(m.ptNext) >= m.Layout.PTFrames {
		return 0, fmt.Errorf("memdev: page-table heap exhausted (%d frames)", m.Layout.PTFrames)
	}
	f := m.ptNext
	m.ptNext++
	return f, nil
}

// AllocFrame allocates one data frame in the given tier. It returns false
// when the tier is full.
func (m *Memory) AllocFrame(tier arch.MemTier) (arch.SPP, bool) {
	free := &m.dramFree
	if tier == arch.TierHBM {
		free = &m.hbmFree
	}
	if len(*free) == 0 {
		return 0, false
	}
	f := (*free)[len(*free)-1]
	*free = (*free)[:len(*free)-1]
	return f, true
}

// FreeFrame returns a data frame to its tier's pool.
func (m *Memory) FreeFrame(spp arch.SPP) {
	if m.Layout.TierOf(spp) == arch.TierHBM {
		m.hbmFree = append(m.hbmFree, spp)
	} else {
		m.dramFree = append(m.dramFree, spp)
	}
}

// FreeFrames reports how many frames remain available in the tier.
func (m *Memory) FreeFrames(tier arch.MemTier) int {
	if tier == arch.TierHBM {
		return len(m.hbmFree)
	}
	return len(m.dramFree)
}

// CopyPage models the DMA of one page between frames and returns the
// latency a waiting requester observes (reads from src and writes to dst
// overlap; the slower device dominates).
func (m *Memory) CopyPage(now arch.Cycles, src, dst arch.SPP) arch.Cycles {
	srcDev := m.Device(src.Addr())
	dstDev := m.Device(dst.Addr())
	rd := srcDev.Occupy(now, arch.PageSize)
	wr := dstDev.Occupy(now, arch.PageSize)
	lat := srcDev.Latency
	if dstDev.Latency > lat {
		lat = dstDev.Latency
	}
	if wr > rd {
		rd = wr
	}
	return lat + rd
}
