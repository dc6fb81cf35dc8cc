package pagetable

import (
	"fmt"

	"hatric/internal/arch"
)

// PTPageAlloc provides a new guest page-table page: the guest OS allocates
// a guest physical page for it and the hypervisor backs it with a pinned
// system physical frame from the page-table heap (pinning keeps guest
// page-table pages out of the inter-tier migration pools; the paper notes
// fewer than 1% of remaps touch page-table pages).
type PTPageAlloc func() (arch.GPP, arch.SPP, error)

// GuestPT is one process's guest page table: a 4-level radix tree mapping
// guest virtual pages to guest physical pages. Its table pages are guest
// pages; their pinned system-physical backing lets the simulator compute
// the SPA of every guest page-table entry.
//
// The per-page memoization (pinned backing frames, resolved leaf mappings)
// lives in dense paged slices rather than maps: guest page numbers are
// handed out densely, and the backing lookup sits on every step of every
// hot 2-D walk.
type GuestPT struct {
	store   *Store
	alloc   PTPageAlloc
	rootGPP arch.GPP
	backing pagedU64 // guest PT page -> pinned frame
	ptPages int

	// leafCache memoizes gvp -> gpp: guest mappings are established at
	// process setup and never change in this model.
	leafCache pagedU64

	// Leaves tracks installed leaf mappings.
	Leaves int
}

// NewGuestPT allocates the root table page.
func NewGuestPT(store *Store, alloc PTPageAlloc) (*GuestPT, error) {
	g := &GuestPT{
		store: store,
		alloc: alloc,
	}
	gpp, spp, err := alloc()
	if err != nil {
		return nil, fmt.Errorf("pagetable: allocating guest root: %w", err)
	}
	g.rootGPP = gpp
	g.backing.set(uint64(gpp), uint64(spp))
	g.ptPages++
	return g, nil
}

// Root returns the root table's guest physical page (the guest CR3).
func (g *GuestPT) Root() arch.GPP { return g.rootGPP }

// BackingSPP returns the pinned frame of a guest page-table page.
//
//hatric:hotpath
func (g *GuestPT) BackingSPP(ptPage arch.GPP) (arch.SPP, bool) {
	spp, ok := g.backing.get(uint64(ptPage))
	return arch.SPP(spp), ok
}

// entryAddr returns the GPA and SPA of the entry indexing gvp at the given
// level in the table page ptPage.
func (g *GuestPT) entryAddr(ptPage arch.GPP, gvp arch.GVP, level int) (arch.GPA, arch.SPA) {
	off := gvp.Index(level) * arch.PTESize
	gpa := ptPage.Addr() + arch.GPA(off)
	spp, _ := g.backing.get(uint64(ptPage))
	spa := arch.SPP(spp).Addr() + arch.SPA(off)
	return gpa, spa
}

// Map installs the leaf mapping gvp -> gpp, allocating interior tables as
// needed. Guest mappings are established at process setup and are not timed.
func (g *GuestPT) Map(gvp arch.GVP, gpp arch.GPP) error {
	table := g.rootGPP
	for level := arch.PTLevels; level > 1; level-- {
		_, spa := g.entryAddr(table, gvp, level)
		e := g.store.ReadPTE(spa)
		if !e.Valid() {
			newGPP, newSPP, err := g.alloc()
			if err != nil {
				return fmt.Errorf("pagetable: allocating guest level-%d table: %w", level-1, err)
			}
			g.backing.set(uint64(newGPP), uint64(newSPP))
			g.ptPages++
			e = MakePTE(uint64(newGPP), true)
			g.store.WritePTE(spa, e)
		}
		table = arch.GPP(e.Frame())
	}
	_, spa := g.entryAddr(table, gvp, 1)
	if !g.store.ReadPTE(spa).Valid() {
		g.Leaves++
	}
	g.store.WritePTE(spa, MakePTE(uint64(gpp), true))
	// Populate the leaf cache now rather than lazily on first Translate:
	// guest mappings are all installed at process setup, so run-time
	// Translate is then a pure read that never mutates the cache.
	g.leafCache.set(uint64(gvp), uint64(gpp))
	return nil
}

// Translate functionally resolves gvp to a guest physical page.
//
//hatric:hotpath
func (g *GuestPT) Translate(gvp arch.GVP) (arch.GPP, bool) {
	if gpp, ok := g.leafCache.get(uint64(gvp)); ok {
		return arch.GPP(gpp), true
	}
	table := g.rootGPP
	for level := arch.PTLevels; level >= 1; level-- {
		_, spa := g.entryAddr(table, gvp, level)
		e := g.store.ReadPTE(spa)
		if !e.Valid() || !e.Present() {
			return 0, false
		}
		if level == 1 {
			gpp := arch.GPP(e.Frame())
			g.leafCache.set(uint64(gvp), uint64(gpp))
			return gpp, true
		}
		table = arch.GPP(e.Frame())
	}
	return 0, false
}

// WalkStep describes one guest page-table reference of a 2-D walk.
type WalkStep struct {
	Level   int      // 4 (root) .. 1 (leaf)
	Table   arch.GPP // guest PT page being indexed
	GPA     arch.GPA // guest physical address of the entry
	SPA     arch.SPA // system physical address of the entry
	NextGPP arch.GPP // frame the entry points at (next table or data page)
}

// WalkFrom appends the guest walk steps starting at the given level with
// the given table page to buf and returns it (startLevel = PTLevels and the
// root for a full walk; an MMU-cache hit starts lower). Hot callers pass a
// reusable scratch buffer (buf[:0]) so the per-walk steps never touch the
// heap; nil is fine too. ok is false on a hole in the table.
//
//hatric:hotpath
func (g *GuestPT) WalkFrom(gvp arch.GVP, startLevel int, table arch.GPP, buf []WalkStep) (steps []WalkStep, ok bool) {
	steps = buf
	for level := startLevel; level >= 1; level-- {
		gpa, spa := g.entryAddr(table, gvp, level)
		e := g.store.ReadPTE(spa)
		if !e.Valid() || !e.Present() {
			return steps, false
		}
		next := arch.GPP(e.Frame())
		//hatric:alloc-ok grows the caller's reusable scratch to at most PTLevels entries once; allocation-free thereafter
		steps = append(steps, WalkStep{Level: level, Table: table, GPA: gpa, SPA: spa, NextGPP: next})
		table = next
	}
	return steps, true
}

// TablePageAt returns the guest PT page reached after consuming the radix
// indices above `level` (the page an MMU-cache entry for `level` points
// at), plus its pinned backing frame.
func (g *GuestPT) TablePageAt(gvp arch.GVP, level int) (arch.GPP, arch.SPP, bool) {
	table := g.rootGPP
	for l := arch.PTLevels; l > level; l-- {
		_, spa := g.entryAddr(table, gvp, l)
		e := g.store.ReadPTE(spa)
		if !e.Valid() || !e.Present() {
			return 0, 0, false
		}
		table = arch.GPP(e.Frame())
	}
	spp, _ := g.backing.get(uint64(table))
	return table, arch.SPP(spp), true
}

// NumPTPages returns how many guest page-table pages exist.
func (g *GuestPT) NumPTPages() int { return g.ptPages }
