// Package sim wires every substrate into a runnable system: CPUs with
// translation structures and hardware walkers, the coherent cache
// hierarchy, the two-tier memory, N virtual machines each with its own
// guest and nested page tables, the hypervisor's paging machinery, and a
// translation-coherence protocol. It executes workload streams with
// min-clock-first scheduling (per-CPU cycle counters stay within one
// reference of each other) and reports runtime, event counts, and energy
// — per CPU, per VM, and machine-wide.
//
// The machine can run more vCPUs than physical CPUs: Options.VCPUsPerCPU
// enables a round-robin quantum scheduler that time-slices vCPU slots onto
// physical CPUs, striping consecutive per-VM slot blocks across the
// machine so every physical CPU interleaves vCPUs of different VMs. The
// VPID-tagged translation structures keep the VMs' entries apart without
// flushing at world switches (Options.FlushOnVMSwitch restores the
// no-VPID flush baseline for comparison), and software shootdowns charge
// the initiator for descheduled target vCPUs — the consolidation cost the
// paper's hardware coherence never pays.
//
// # Memory-management storms
//
// Beyond demand paging and live migration, three hypervisor daemons
// generate remap storms from inside the run loop, each hooked into the
// per-quantum maintenance path and each a deterministic pure function of
// the seeded streams: Options.KSM drives the content-dedup scanner
// (merges across VMs into shared copy-on-write frames, write-triggered
// breaks), Options.Balloons schedules inflate bursts that reclaim frames
// through the quota-aware eviction path, and Options.Compaction runs the
// THP-style defragmenter over die-stacked frames in sliding windows. All
// three remap present translations through the coherent PTE-store path,
// so their event counters (KSMMerges, KSMBreaks, BalloonReclaims,
// CompactionMoves) land in Result.Agg beside the shootdown costs they
// cause, Result.KSM snapshots the end-of-run sharing state, and
// Result.Balloons reports each burst. The golden files pin
// dedup/balloon/compact scenarios per protocol, and
// TestSteadyStateZeroAllocsStorms extends the zero-allocation gate over
// the scan and compaction paths.
//
// # Batching
//
// Reference generation is batched; execution is not. Each vCPU owns a
// reference slab (vcpuState.buf) that workload.Stream.NextBatch fills
// wholesale, and the run loop consumes it one reference at a time. The
// two concerns separate cleanly because generation and execution share
// no state in either direction:
//
//   - Generation depends only on the stream's private RNG and the Zipf
//     table, never on simulated time, cache contents, or another vCPU's
//     progress — so drawing reference k+255 early produces exactly the
//     bytes it would have produced on demand.
//
//   - Scheduling depends only on the per-CPU clocks: the min-clock heap
//     still picks the globally oldest CPU before every single reference,
//     so the interleaving across CPUs — and therefore every coherence
//     race, shootdown ordering, and migration overlap — is identical
//     cycle for cycle to the unbatched loop.
//
// The slab size (refBatch) is thus a pure host-throughput knob: it
// amortizes the generator call and keeps the sampled stream hot in host
// cache, but is invisible in simulated results. The golden files —
// including slab-boundary cases where a run ends mid-slab or exactly on
// a slab edge — pin this property, and TestSteadyStateZeroAllocs asserts
// the slabs are reused, never reallocated, in steady state.
//
// # Golden files
//
// TestGoldenCounters (golden_test.go) runs every golden scenario under
// sw, hatric, unitd and ideal with Options.CheckStale on, requires zero
// stale translation uses, and compares the result with
// testdata/golden/<scenario>-<protocol>.txt. A file holds one
// path=value line per nonzero leaf of the result: runtime, the
// aggregate, per-CPU and per-VM counters with their finish cycles,
// device bytes, and the migration, QoS, balloon and KSM reports. An
// absent line means 0, so adding a counter anywhere in stats.Counters
// changes no file until the counter becomes nonzero. A mismatch reports
// "scenario/protocol: path got X want Y" for each differing line, and a
// missing or orphaned file fails the test. After an intended modeling
// change, rewrite the files with
//
//	GOLDEN_UPDATE=1 go test -run TestGoldenCounters ./internal/sim
//
// and review their diff in the commit.
//
// TestGoldenCountersParallel runs the same scenarios as concurrent
// subtests against the same files: exp.Runner.Parallel runs cells on
// concurrent goroutines, which is sound only if every System is
// self-contained.
package sim
