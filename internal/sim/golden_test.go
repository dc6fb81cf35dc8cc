package sim

import (
	"fmt"
	"hash/fnv"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"hatric/internal/arch"
	"hatric/internal/hv"
	"hatric/internal/stats"
)

// The golden-counter tests freeze the simulator's observable outputs at
// fixed seeds. The fingerprints below were recorded from the map-and-scan
// implementation (before the allocation-free flattening of the directory,
// caches, translation structures, scheduler, and page-table caches) and
// must never drift: a changed fingerprint means the refactored hot path is
// no longer bit-identical to the modeled machine it replaced.
//
// Regenerate with GOLDEN_UPDATE=1 go test -run TestGoldenCounters -v ./internal/sim
// only when an intentional modeling change lands, and say so in the commit.

// fpSkipZero lists counter fields added after the original fingerprints
// were recorded. fpCounters omits them while they are zero so every
// scenario that cannot produce them hashes exactly as it did before the
// fields existed; scenarios that do produce them (the storm scenarios
// below) print them at the end, where the struct keeps them.
var fpSkipZero = map[string]bool{
	"KSMMerges":            true,
	"KSMBreaks":            true,
	"BalloonReclaims":      true,
	"CompactionMoves":      true,
	"IPIsLost":             true,
	"ShootdownRetries":     true,
	"AcksLost":             true,
	"RelayReissues":        true,
	"MigrationLinkRetries": true,
	"BalloonReturns":       true,
}

// fpCounters formats a stats.Counters byte-identically to fmt's %+v for
// every legacy field, skipping the fpSkipZero fields at zero. New counters
// must be appended at the end of the Counters struct so the legacy fields
// stay a stable prefix (TestFingerprintFormatterCompat pins this).
//
// counterflow checks this sink covers every Counters field; the reflective
// sweep does so by construction, which is exactly why the goldens catch a
// counter that Add or the fingerprint would otherwise silently drop.
//
//hatric:counters-sink
func fpCounters(c *stats.Counters) string {
	v := reflect.ValueOf(c).Elem()
	t := v.Type()
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i := 0; i < v.NumField(); i++ {
		val := v.Field(i).Uint()
		name := t.Field(i).Name
		if val == 0 && fpSkipZero[name] {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		b.WriteString(name)
		b.WriteByte(':')
		b.WriteString(strconv.FormatUint(val, 10))
	}
	b.WriteByte('}')
	return b.String()
}

// fpMigration formats a MigrationReport exactly as %+v did when the golden
// fingerprints were frozen — the post-freeze fault-recovery fields
// (LinkRetries, OutageCycles, EarlyStopCopy, LastError) are appended only
// when one of them is set, so fault-free runs hash byte-identically.
func fpMigration(m *hv.MigrationReport) string {
	legacy := struct {
		VM                int
		Dest              arch.MemTier
		Remote            bool
		Started, Finished arch.Cycles
		Rounds            []hv.RoundStats
		PagesCopied       int
		Redirtied         int
		Downtime          arch.Cycles
		FinalDirty        int
		Completed         bool
	}{m.VM, m.Dest, m.Remote, m.Started, m.Finished, m.Rounds,
		m.PagesCopied, m.Redirtied, m.Downtime, m.FinalDirty, m.Completed}
	s := fmt.Sprintf("%+v", legacy)
	if m.LinkRetries != 0 || m.OutageCycles != 0 || m.EarlyStopCopy || m.LastError != "" {
		s = strings.TrimSuffix(s, "}") + fmt.Sprintf(
			" LinkRetries:%d OutageCycles:%d EarlyStopCopy:%v LastError:%s}",
			m.LinkRetries, m.OutageCycles, m.EarlyStopCopy, m.LastError)
	}
	return s
}

// fpBalloon is fpMigration's counterpart for BalloonReport: the post-freeze
// Returned field is appended only when a deflation actually ran.
func fpBalloon(b *hv.BalloonReport) string {
	legacy := struct {
		VM                int
		Target            int
		Reclaimed         int
		Shortfall         int
		Started, Finished arch.Cycles
		Completed         bool
	}{b.VM, b.Target, b.Reclaimed, b.Shortfall, b.Started, b.Finished, b.Completed}
	s := fmt.Sprintf("%+v", legacy)
	if b.Returned != 0 {
		s = strings.TrimSuffix(s, "}") + fmt.Sprintf(" Returned:%d}", b.Returned)
	}
	return s
}

// goldenFingerprint folds everything observable about a Result into one
// hash: runtime, per-CPU and aggregate counters, per-VM attribution,
// migration reports, QoS accounting, and (when present) balloon and KSM
// reports.
func goldenFingerprint(res *Result) uint64 {
	h := fnv.New64a()
	put := func(format string, args ...any) {
		fmt.Fprintf(h, format, args...)
	}
	put("runtime=%d\n", uint64(res.Runtime))
	put("agg=%s\n", fpCounters(&res.Agg))
	for i := range res.PerCPU {
		put("cpu%d=%s done=%d\n", i, fpCounters(&res.PerCPU[i]), uint64(res.Completion[i]))
	}
	for v := range res.PerVM {
		put("vm%d=%s done=%d\n", v, fpCounters(&res.PerVM[v]), uint64(res.VMCompletion[v]))
	}
	put("bytes=%d,%d\n", res.HBMBytes, res.DRAMBytes)
	for _, m := range res.Migrations {
		put("mig=%s\n", fpMigration(&m))
	}
	for _, q := range res.QoS {
		put("qos=%+v\n", q)
	}
	for _, b := range res.Balloons {
		put("balloon=%s\n", fpBalloon(&b))
	}
	if res.KSM != nil {
		put("ksm=%+v\n", *res.KSM)
	}
	return h.Sum64()
}

// TestFingerprintFormatterCompat pins fpCounters to fmt's %+v for any
// Counters whose post-freeze fields are zero: the 32 original fingerprints
// were recorded via %+v, so the formatter must reproduce it byte for byte
// there — and diverge only by appending the new fields when nonzero.
func TestFingerprintFormatterCompat(t *testing.T) {
	legacy := stats.Counters{Instructions: 3, MemRefs: 2, StaleTranslationUses: 9}
	// The legacy format is today's %+v with the all-zero storm-counter tail
	// removed — exactly what %+v printed when the fingerprints were frozen.
	tail := " KSMMerges:0 KSMBreaks:0 BalloonReclaims:0 CompactionMoves:0" +
		" IPIsLost:0 ShootdownRetries:0 AcksLost:0 RelayReissues:0" +
		" MigrationLinkRetries:0 BalloonReturns:0}"
	want := fmt.Sprintf("%+v", legacy)
	if !strings.HasSuffix(want, tail) {
		t.Fatalf("storm counters no longer the final fields of stats.Counters: %s", want)
	}
	want = strings.TrimSuffix(want, tail) + "}"
	if got := fpCounters(&legacy); got != want {
		t.Errorf("formatter diverged from the frozen legacy format:\n got %s\nwant %s", got, want)
	}
	storm := legacy
	storm.KSMMerges = 5
	storm.CompactionMoves = 7
	s := fpCounters(&storm)
	if !strings.Contains(s, "KSMMerges:5") || !strings.Contains(s, "CompactionMoves:7") {
		t.Errorf("nonzero storm counters missing from fingerprint: %s", s)
	}
	if strings.Contains(s, "KSMBreaks") || strings.Contains(s, "BalloonReclaims") {
		t.Errorf("zero storm counters must be omitted: %s", s)
	}
	// Every fpSkipZero name must still exist in the struct (renames would
	// silently stop skipping) and sit after every legacy field.
	typ := reflect.TypeOf(stats.Counters{})
	firstNew := -1
	seen := 0
	for i := 0; i < typ.NumField(); i++ {
		if fpSkipZero[typ.Field(i).Name] {
			seen++
			if firstNew < 0 {
				firstNew = i
			}
		} else if firstNew >= 0 {
			t.Errorf("legacy field %s appears after new counter fields; append new fields at the end",
				typ.Field(i).Name)
		}
	}
	if seen != len(fpSkipZero) {
		t.Errorf("fpSkipZero names drifted from stats.Counters: matched %d of %d", seen, len(fpSkipZero))
	}
}

// goldenScenarios are the machine shapes the determinism promise covers:
// pinned single-VM paging, a consolidated multi-VM server, a live
// migration, vCPU overcommit, and per-VM QoS tiers.
func goldenScenarios() map[string]func(protocol string) Options {
	spec := smokeSpec()
	spec.Refs = 8_000
	small := spec
	small.Threads = 2
	return map[string]func(protocol string) Options{
		"pinned": func(protocol string) Options {
			return Options{
				Config:    smokeConfig(),
				Protocol:  protocol,
				Paging:    hv.PagingConfig{Policy: "lru"},
				Mode:      hv.ModePaged,
				Workloads: SingleWorkload(spec, 4),
				Seed:      7,
			}
		},
		"multivm": func(protocol string) Options {
			return Options{
				Config:   smokeConfig(),
				Protocol: protocol,
				Paging:   hv.PagingConfig{Policy: "fifo"},
				Mode:     hv.ModePaged,
				VMs: []VMSpec{
					{Workloads: []AssignedWorkload{{Spec: small, CPUs: []int{0, 1}}}},
					{Workloads: []AssignedWorkload{{Spec: small, CPUs: []int{2, 3}}}},
				},
				Seed: 11,
			}
		},
		"migration": func(protocol string) Options {
			return migrationOpts(protocol, small, small,
				hv.MigrationSpec{VM: 0, At: 40_000, Dest: arch.TierDRAM, BurstPages: 8})
		},
		"overcommit": func(protocol string) Options {
			cfg := smokeConfig()
			cfg.Mem.HBMFrames = 896
			return Options{
				Config:      cfg,
				Protocol:    protocol,
				Paging:      hv.PagingConfig{Policy: "lru"},
				Mode:        hv.ModePaged,
				VMs:         StripedVMs(small.PerThread(1), cfg.NumCPUs, 2),
				VCPUsPerCPU: 2,
				Seed:        5,
			}
		},
		"qos": func(protocol string) Options {
			vms := []VMSpec{
				{Workloads: []AssignedWorkload{{Spec: small, CPUs: []int{0, 1}}},
					QuotaFrames: 200},
				{Workloads: []AssignedWorkload{{Spec: small, CPUs: []int{2, 3}}},
					QuotaWeight: 2},
			}
			return Options{
				Config:   smokeConfig(),
				Protocol: protocol,
				Paging:   hv.PagingConfig{Policy: "lru"},
				Mode:     hv.ModePaged,
				VMs:      vms,
				Seed:     9,
			}
		},
		// The three scenarios below pin the batch-boundary edge cases of the
		// batched reference pipeline: a one-cycle scheduler quantum (every
		// reference is a scheduling decision, so batches degenerate to single
		// references), per-thread reference counts that are not a multiple of
		// any power-of-two slab size (the final refill is a partial batch),
		// and a live migration firing mid-run under the vCPU scheduler (remap
		// bursts and dirty tracking interleave with partially consumed
		// slabs). Their fingerprints were recorded from the per-reference
		// Stream.Next pipeline before batching existed.
		"quantum1": func(protocol string) Options {
			cfg := smokeConfig()
			cfg.Mem.HBMFrames = 896
			return Options{
				Config:       cfg,
				Protocol:     protocol,
				Paging:       hv.PagingConfig{Policy: "lru"},
				Mode:         hv.ModePaged,
				VMs:          StripedVMs(small.PerThread(1), cfg.NumCPUs, 2),
				VCPUsPerCPU:  2,
				SchedQuantum: 1,
				Seed:         13,
			}
		},
		"oddrefs": func(protocol string) Options {
			odd := spec
			odd.Refs = 7_919 // prime: never divisible by any slab size
			uneven := small
			uneven.Refs = 4_001 // staggered completion mid-batch
			return Options{
				Config:   smokeConfig(),
				Protocol: protocol,
				Paging:   hv.PagingConfig{Policy: "lru"},
				Mode:     hv.ModePaged,
				VMs: []VMSpec{
					{Workloads: []AssignedWorkload{{Spec: odd, CPUs: []int{0, 1}}}},
					{Workloads: []AssignedWorkload{{Spec: uneven, CPUs: []int{2, 3}}}},
				},
				Seed: 17,
			}
		},
		// Memory-management storm scenarios: KSM dedup (merge + break
		// remaps), a balloon inflation (targeted eviction burst), and the
		// compaction daemon (sliding-window relocation remaps; the paging
		// daemon keeps the free pool compaction moves through).
		"dedup": func(protocol string) Options {
			return Options{
				Config:   smokeConfig(),
				Protocol: protocol,
				Paging:   hv.PagingConfig{Policy: "lru"},
				Mode:     hv.ModePaged,
				VMs: []VMSpec{
					{Workloads: []AssignedWorkload{{Spec: small, CPUs: []int{0, 1}}}},
					{Workloads: []AssignedWorkload{{Spec: small, CPUs: []int{2, 3}}}},
				},
				KSM: hv.KSMConfig{ScanEvery: 400, PagesPerScan: 16,
					SharingFactor: 0.5, BreakRate: 0.3, ClassCount: 24},
				Seed: 29,
			}
		},
		"balloon": func(protocol string) Options {
			return Options{
				Config:   smokeConfig(),
				Protocol: protocol,
				Paging:   hv.PagingConfig{Policy: "lru"},
				Mode:     hv.ModePaged,
				VMs: []VMSpec{
					{Workloads: []AssignedWorkload{{Spec: small, CPUs: []int{0, 1}}}},
					{Workloads: []AssignedWorkload{{Spec: small, CPUs: []int{2, 3}}}},
				},
				Balloons: []hv.BalloonSpec{{VM: 1, At: 30_000, Frames: 64, BurstFrames: 8}},
				Seed:     31,
			}
		},
		"compact": func(protocol string) Options {
			return Options{
				Config:     smokeConfig(),
				Protocol:   protocol,
				Paging:     hv.PagingConfig{Policy: "lru", Daemon: true},
				Mode:       hv.ModePaged,
				Workloads:  SingleWorkload(spec, 4),
				Compaction: hv.CompactionConfig{Every: 300, WindowPages: 4},
				Seed:       37,
			}
		},
		"migsched": func(protocol string) Options {
			cfg := smokeConfig()
			cfg.Mem.HBMFrames = 896
			return Options{
				Config:      cfg,
				Protocol:    protocol,
				Paging:      hv.PagingConfig{Policy: "lru"},
				Mode:        hv.ModePaged,
				VMs:         StripedVMs(small.PerThread(1), cfg.NumCPUs, 2),
				VCPUsPerCPU: 2,
				Migrations: []hv.MigrationSpec{
					{VM: 0, At: 30_000, Dest: arch.TierDRAM, BurstPages: 8},
				},
				Seed: 19,
			}
		},
	}
}

// goldenWant maps scenario/protocol to the fingerprint recorded before the
// allocation-free refactor.
var goldenWant = map[string]uint64{
	"multivm/sw":        0x89cb8600184e8c6f,
	"multivm/hatric":    0x11a0657b2800a32e,
	"multivm/unitd":     0x4079332c72ad1eee,
	"multivm/ideal":     0xd4bef9ffcfdbf83b,
	"migration/sw":      0x4737233e9c98d2f1,
	"migration/hatric":  0x042f36f838e48786,
	"migration/unitd":   0x2fe1d28415f98a7e,
	"migration/ideal":   0x72eda3b77dcc8df9,
	"overcommit/sw":     0x2b49c562c492c93b,
	"overcommit/hatric": 0x7dfb54b1f42ec345,
	"overcommit/unitd":  0xc1653ad0ceccf79a,
	"overcommit/ideal":  0x29d4d0c4a36942b2,
	"pinned/sw":         0xc5d5cbbf021e515b,
	"pinned/hatric":     0x1d379e52cde4ac49,
	"pinned/unitd":      0x0254284d219bbf3c,
	"pinned/ideal":      0x3be2920351fd69b9,
	"qos/sw":            0x2e1ba79846a68e67,
	"qos/hatric":        0xe5fabb05a048de86,
	"qos/unitd":         0x44fb26d808fb295a,
	"qos/ideal":         0x723d45b68875d590,
	"quantum1/sw":       0x436b494f385fb303,
	"quantum1/hatric":   0x6bdb0e30f0daa102,
	"quantum1/unitd":    0xb0a58290dc10ece4,
	"quantum1/ideal":    0x4ba0428fe3c1ac70,
	"oddrefs/sw":        0x62e09199978aa4c8,
	"oddrefs/hatric":    0xe3c871b3a5a281b8,
	"oddrefs/unitd":     0x0ef70937f39edbbc,
	"oddrefs/ideal":     0x30f0a42b01afbf56,
	"dedup/sw":          0x06f0273fdc7d8d35,
	"dedup/hatric":      0xf5651c8bcc55fe64,
	"dedup/unitd":       0x3db93c742290a449,
	"dedup/ideal":       0x2ab1ddb10b9d9b72,
	"balloon/sw":        0xbe102a366643017f,
	"balloon/hatric":    0x0e88b160debb6b54,
	"balloon/unitd":     0xea175f91ac1e4d21,
	"balloon/ideal":     0x710bbc229d6cb263,
	"compact/sw":        0x7d4602a14e62b36f,
	"compact/hatric":    0x3e9583727db96488,
	"compact/unitd":     0x38a84184399b5a8a,
	"compact/ideal":     0x639aa0caab437919,
	"migsched/sw":       0x59edd6cd3ce91c9c,
	"migsched/hatric":   0x45e11b36262b62de,
	"migsched/unitd":    0x1cf62397c6f706e4,
	"migsched/ideal":    0x1e6268fa8081f7cf,
}

func TestGoldenCounters(t *testing.T) {
	update := os.Getenv("GOLDEN_UPDATE") != ""
	scenarios := goldenScenarios()
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	var lines []string
	for _, name := range names {
		build := scenarios[name]
		for _, proto := range []string{"sw", "hatric", "unitd", "ideal"} {
			key := name + "/" + proto
			t.Run(key, func(t *testing.T) {
				sys, err := New(build(proto))
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run()
				if err != nil {
					t.Fatal(err)
				}
				got := goldenFingerprint(res)
				if update {
					lines = append(lines, fmt.Sprintf("\t%q: %#016x,", key, got))
					return
				}
				want, ok := goldenWant[key]
				if !ok {
					t.Fatalf("no golden fingerprint for %s; run with GOLDEN_UPDATE=1 to record", key)
				}
				if got != want {
					t.Errorf("fingerprint drifted: got %#016x want %#016x\nagg: %+v",
						got, want, res.Agg)
				}
			})
		}
	}
	if update {
		fmt.Println("var goldenWant = map[string]uint64{")
		for _, l := range lines {
			fmt.Println(l)
		}
		fmt.Println("}")
	}
}

// TestGoldenCountersParallel runs the same golden scenarios as concurrent
// subtests and holds them to the same goldenWant fingerprints.
// exp.Runner.Parallel runs sweep cells on concurrent goroutines in one
// process, which is sound only if every System is self-contained: mutable
// state shared between runs would shift a fingerprint here, and shows up
// as a data race under go test -race.
func TestGoldenCountersParallel(t *testing.T) {
	scenarios := goldenScenarios()
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		build := scenarios[name]
		for _, proto := range []string{"sw", "hatric", "unitd", "ideal"} {
			key := name + "/" + proto
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				sys, err := New(build(proto))
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run()
				if err != nil {
					t.Fatal(err)
				}
				want, ok := goldenWant[key]
				if !ok {
					t.Fatalf("no golden fingerprint for %s", key)
				}
				if got := goldenFingerprint(res); got != want {
					t.Errorf("fingerprint drifted under concurrent runs: got %#016x want %#016x",
						got, want)
				}
			})
		}
	}
}
