package pagetable

import (
	"fmt"

	"hatric/internal/arch"
)

// FrameAlloc allocates one page-table frame from the heap.
type FrameAlloc func() (arch.SPP, error)

// NestedPT is the hypervisor-maintained nested page table of one VM,
// mapping guest physical pages to system physical pages. It is a 4-level
// radix tree whose table pages live in the page-table heap.
type NestedPT struct {
	store *Store
	alloc FrameAlloc
	root  arch.SPP

	// leafCache memoizes gpp -> leaf entry SPA in a dense paged slice
	// (guest physical pages are handed out densely per VM). Page-table
	// pages are never freed or relocated, so a leaf entry's address is
	// stable once its path exists; only the entry's contents change.
	leafCache pagedU64

	// Leaves tracks the number of leaf mappings (present or not).
	Leaves int
}

// NewNestedPT allocates the root table.
func NewNestedPT(store *Store, alloc FrameAlloc) (*NestedPT, error) {
	root, err := alloc()
	if err != nil {
		return nil, fmt.Errorf("pagetable: allocating nested root: %w", err)
	}
	return &NestedPT{store: store, alloc: alloc, root: root}, nil
}

// Root returns the root table frame (the simulated nested CR3).
func (n *NestedPT) Root() arch.SPP { return n.root }

// Store exposes the backing page-table heap.
func (n *NestedPT) Store() *Store { return n.store }

// entrySPA computes the address of the entry indexing gpp at the given
// level within the table page.
func entrySPA(table arch.SPP, idx uint64) arch.SPA {
	return table.Addr() + arch.SPA(idx*arch.PTESize)
}

// ensurePath walks levels 4..2, allocating interior tables as needed, and
// returns the table frame holding the leaf (level-1) entry for gpp.
func (n *NestedPT) ensurePath(gpp arch.GPP) (arch.SPP, error) {
	table := n.root
	for level := arch.PTLevels; level > 1; level-- {
		spa := entrySPA(table, gpp.Index(level))
		e := n.store.ReadPTE(spa)
		if !e.Valid() {
			f, err := n.alloc()
			if err != nil {
				return 0, fmt.Errorf("pagetable: allocating nested level-%d table: %w", level-1, err)
			}
			e = MakePTE(uint64(f), true)
			n.store.WritePTE(spa, e)
		}
		table = arch.SPP(e.Frame())
	}
	return table, nil
}

// Map installs (or replaces) the leaf mapping gpp -> spp and returns the
// SPA of the leaf entry — the address a co-tag for this translation stores.
// Structural (interior) writes happen at VM-setup time and are not timed.
func (n *NestedPT) Map(gpp arch.GPP, spp arch.SPP, present bool) (arch.SPA, error) {
	table, err := n.ensurePath(gpp)
	if err != nil {
		return 0, err
	}
	spa := entrySPA(table, gpp.Index(1))
	if !n.store.ReadPTE(spa).Valid() {
		n.Leaves++
	}
	n.store.WritePTE(spa, MakePTE(uint64(spp), present))
	// Populate the leaf cache now rather than lazily on first lookup:
	// mapping happens at VM setup, so every run-time LeafSPA for an
	// existing path is then a pure read that never mutates the cache.
	n.leafCache.set(uint64(gpp), uint64(spa))
	return spa, nil
}

// LeafSPA returns the SPA of the leaf entry for gpp, or false if no path
// exists yet.
//
//hatric:hotpath
func (n *NestedPT) LeafSPA(gpp arch.GPP) (arch.SPA, bool) {
	if spa, ok := n.leafCache.get(uint64(gpp)); ok {
		return arch.SPA(spa), true
	}
	table := n.root
	for level := arch.PTLevels; level > 1; level-- {
		e := n.store.ReadPTE(entrySPA(table, gpp.Index(level)))
		if !e.Valid() {
			return 0, false
		}
		table = arch.SPP(e.Frame())
	}
	spa := entrySPA(table, gpp.Index(1))
	n.leafCache.set(uint64(gpp), uint64(spa))
	return spa, true
}

// WalkSPAs returns the four entry addresses (levels 4..1) a hardware nested
// walk for gpp touches. ok is false if the path is incomplete.
//
//hatric:hotpath
func (n *NestedPT) WalkSPAs(gpp arch.GPP) (spas [arch.PTLevels]arch.SPA, ok bool) {
	table := n.root
	for level := arch.PTLevels; level >= 1; level-- {
		spa := entrySPA(table, gpp.Index(level))
		spas[arch.PTLevels-level] = spa
		e := n.store.ReadPTE(spa)
		if level > 1 {
			if !e.Valid() {
				return spas, false
			}
			table = arch.SPP(e.Frame())
		}
	}
	return spas, true
}

// Translate functionally resolves gpp. present reports the present bit;
// ok reports whether any leaf entry exists.
//
//hatric:hotpath
func (n *NestedPT) Translate(gpp arch.GPP) (spp arch.SPP, present, ok bool) {
	spa, found := n.LeafSPA(gpp)
	if !found {
		return 0, false, false
	}
	e := n.store.ReadPTE(spa)
	if !e.Valid() {
		return 0, false, false
	}
	return arch.SPP(e.Frame()), e.Present(), true
}

// TranslateAddr resolves a full guest physical address to a system
// physical address (present mappings only).
func (n *NestedPT) TranslateAddr(gpa arch.GPA) (arch.SPA, bool) {
	spp, present, ok := n.Translate(gpa.Page())
	if !ok || !present {
		return 0, false
	}
	return spp.Addr() + arch.SPA(uint64(gpa)&(arch.PageSize-1)), true
}

// SetPresent flips the present bit of the leaf entry and returns the
// entry's SPA. The caller performs the coherent write and the translation
// coherence actions.
func (n *NestedPT) SetPresent(gpp arch.GPP, present bool) (arch.SPA, error) {
	spa, found := n.LeafSPA(gpp)
	if !found {
		return 0, fmt.Errorf("pagetable: SetPresent on unmapped gpp %#x", uint64(gpp))
	}
	e := n.store.ReadPTE(spa)
	n.store.WritePTE(spa, e.withFlag(FlagPresent, present))
	return spa, nil
}

// Remap changes the frame of the leaf entry (and sets present) and returns
// the entry's SPA. Used for page migrations.
func (n *NestedPT) Remap(gpp arch.GPP, spp arch.SPP, present bool) (arch.SPA, error) {
	spa, found := n.LeafSPA(gpp)
	if !found {
		return 0, fmt.Errorf("pagetable: Remap on unmapped gpp %#x", uint64(gpp))
	}
	old := n.store.ReadPTE(spa)
	e := MakePTE(uint64(spp), present)
	// Preserve accessed/dirty flags semantics: a remap clears them.
	_ = old
	n.store.WritePTE(spa, e)
	return spa, nil
}

// SetAccessed updates the accessed flag of gpp's leaf entry (hardware
// walker metadata update; picked up by ordinary cache coherence, so it is
// not treated as a remap).
//
//hatric:hotpath
func (n *NestedPT) SetAccessed(gpp arch.GPP, on bool) {
	if spa, found := n.LeafSPA(gpp); found {
		e := n.store.ReadPTE(spa)
		if ne := e.withFlag(FlagAccessed, on); ne != e {
			n.store.WritePTE(spa, ne)
		}
	}
}

// Accessed reads the accessed flag of gpp's leaf entry.
func (n *NestedPT) Accessed(gpp arch.GPP) bool {
	spa, found := n.LeafSPA(gpp)
	if !found {
		return false
	}
	return n.store.ReadPTE(spa).Accessed()
}
