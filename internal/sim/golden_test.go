package sim

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
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
// fixed seeds. Every scenario below runs under every golden protocol, and
// each run has a readable golden file,
// testdata/golden/<scenario>-<protocol>.txt, holding one path=value line
// per nonzero leaf of the run's result (see goldenText). A line that
// differs means the modeled machine changed, and the test names the
// scenario, protocol and path that moved.
//
// Regenerate with GOLDEN_UPDATE=1 go test -run TestGoldenCounters ./internal/sim
// only when an intentional modeling change lands, and say so in the commit.

const goldenDir = "testdata/golden"

var goldenProtocols = []string{"sw", "hatric", "unitd", "ideal"}

// goldenView is the part of a Result the golden files pin: runtime,
// aggregate, per-CPU and per-VM counters with their finish cycles, device
// bytes, and the migration, QoS, balloon and KSM reports. Energy stays
// out: it is a float function of the counters already pinned here.
type goldenView struct {
	runtime   arch.Cycles
	agg       stats.Counters
	cpu       []goldenUnit
	vm        []goldenUnit
	hbmBytes  uint64
	dramBytes uint64
	mig       []hv.MigrationReport
	qos       []hv.VMQoSReport
	balloon   []hv.BalloonReport
	ksm       *hv.KSMReport
}

// goldenUnit is one CPU's or VM's counters and the cycle it finished at.
type goldenUnit struct {
	stats.Counters
	done arch.Cycles
}

// goldenText renders the pinned part of res, one path=value line per
// nonzero leaf.
func goldenText(res *Result) string {
	g := goldenView{
		runtime:   res.Runtime,
		agg:       res.Agg,
		hbmBytes:  res.HBMBytes,
		dramBytes: res.DRAMBytes,
		mig:       res.Migrations,
		qos:       res.QoS,
		balloon:   res.Balloons,
		ksm:       res.KSM,
	}
	for i := range res.PerCPU {
		g.cpu = append(g.cpu, goldenUnit{res.PerCPU[i], res.Completion[i]})
	}
	for v := range res.PerVM {
		g.vm = append(g.vm, goldenUnit{res.PerVM[v], res.VMCompletion[v]})
	}
	var b strings.Builder
	renderLeaves(&b, "", reflect.ValueOf(g))
	return b.String()
}

// renderLeaves writes one "path=value" line for every leaf of v under
// path, in declaration order. Struct fields extend the path with
// ".Name" (embedded structs are flattened into their parent), slice
// elements with "[i]", and a slice also writes its length as
// "len(path)", so an all-zero element still counts. One rule covers
// every leaf: a zero value is omitted and an absent line means 0. A
// counter added anywhere in stats.Counters or a report therefore leaves
// every golden file untouched until it becomes nonzero, and then shows
// up as one named line.
//
// counterflow checks this sink covers every Counters field; the
// reflective walk does so by construction.
//
//hatric:counters-sink
func renderLeaves(b *strings.Builder, path string, v reflect.Value) {
	var s string
	switch v.Kind() {
	case reflect.Struct:
		t := v.Type()
		for i := 0; i < v.NumField(); i++ {
			f := t.Field(i)
			p := f.Name
			if f.Anonymous {
				p = path
			} else if path != "" {
				p = path + "." + f.Name
			}
			renderLeaves(b, p, v.Field(i))
		}
		return
	case reflect.Slice:
		if v.Len() > 0 {
			fmt.Fprintf(b, "len(%s)=%d\n", path, v.Len())
		}
		for i := 0; i < v.Len(); i++ {
			renderLeaves(b, fmt.Sprintf("%s[%d]", path, i), v.Index(i))
		}
		return
	case reflect.Pointer:
		if !v.IsNil() {
			renderLeaves(b, path, v.Elem())
		}
		return
	case reflect.Bool:
		s = strconv.FormatBool(v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		s = strconv.FormatInt(v.Int(), 10)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		s = strconv.FormatUint(v.Uint(), 10)
	case reflect.Float64:
		s = strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case reflect.String:
		s = strconv.Quote(v.String())
	default:
		panic(fmt.Sprintf("golden: %s has unsupported kind %s", path, v.Kind()))
	}
	if !v.IsZero() {
		fmt.Fprintf(b, "%s=%s\n", path, s)
	}
}

// goldenDiff compares two renderings line by path and returns one
// "path got X want Y" entry per difference, in got's order and then
// want's. An absent line reads as 0.
func goldenDiff(got, want string) []string {
	g, gotPaths := parseGolden(got)
	w, wantPaths := parseGolden(want)
	var diffs []string
	seen := make(map[string]bool, len(gotPaths)+len(wantPaths))
	for _, p := range append(gotPaths, wantPaths...) {
		if seen[p] {
			continue
		}
		seen[p] = true
		gv, ok := g[p]
		if !ok {
			gv = "0"
		}
		wv, ok := w[p]
		if !ok {
			wv = "0"
		}
		if gv != wv {
			diffs = append(diffs, fmt.Sprintf("%s got %s want %s", p, gv, wv))
		}
	}
	return diffs
}

// parseGolden splits a rendering into its path -> value map and the
// paths in line order. A line without "=" keys the whole line to an
// empty value, so a corrupted file still diffs instead of passing.
func parseGolden(text string) (map[string]string, []string) {
	vals := map[string]string{}
	var paths []string
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		p, v, _ := strings.Cut(line, "=")
		vals[p] = v
		paths = append(paths, p)
	}
	return vals, paths
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
		// slabs). Their golden values were first recorded from the per-reference
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

func goldenFile(scenario, protocol string) string {
	return filepath.Join(goldenDir, scenario+"-"+protocol+".txt")
}

// goldenNames returns the golden scenario names in sorted order.
func goldenNames(scenarios map[string]func(string) Options) []string {
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// runGolden runs one golden scenario under one protocol with the
// stale-translation audit on, requires zero stale uses, and returns the
// run's golden rendering.
func runGolden(t *testing.T, key string, opts Options) string {
	t.Helper()
	opts.CheckStale = true
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Agg.StaleTranslationUses; n != 0 {
		t.Errorf("%s: %d stale translation uses", key, n)
	}
	return goldenText(res)
}

// checkGolden compares a rendering with its golden file and reports one
// error per differing line.
func checkGolden(t *testing.T, key, file, got string) {
	t.Helper()
	want, err := os.ReadFile(file)
	if errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("%s: no golden file %s; record it with "+
			"GOLDEN_UPDATE=1 go test -run TestGoldenCounters ./internal/sim", key, file)
	} else if err != nil {
		t.Fatal(err)
	}
	for _, d := range goldenDiff(got, string(want)) {
		t.Errorf("%s: %s", key, d)
	}
}

// TestGoldenCounters runs every golden scenario under every golden
// protocol, one at a time, with the stale-translation audit on, and
// compares each run with its golden file. With GOLDEN_UPDATE set it
// rewrites the files instead and removes orphans.
func TestGoldenCounters(t *testing.T) {
	update := os.Getenv("GOLDEN_UPDATE") != ""
	scenarios := goldenScenarios()
	names := goldenNames(scenarios)

	// Every file in the golden directory must belong to a scenario and
	// protocol: an orphan would pin nothing.
	files := map[string]bool{}
	for _, name := range names {
		for _, proto := range goldenProtocols {
			files[goldenFile(name, proto)] = true
		}
	}
	present, err := filepath.Glob(filepath.Join(goldenDir, "*.txt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range present {
		switch {
		case files[f]:
		case update:
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
		default:
			t.Errorf("orphan golden file %s matches no scenario and protocol; "+
				"delete it, or run GOLDEN_UPDATE=1 go test -run TestGoldenCounters ./internal/sim", f)
		}
	}

	for _, name := range names {
		build := scenarios[name]
		for _, proto := range goldenProtocols {
			key := name + "/" + proto
			file := goldenFile(name, proto)
			t.Run(key, func(t *testing.T) {
				got := runGolden(t, key, build(proto))
				if update {
					if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				checkGolden(t, key, file, got)
			})
		}
	}
}

// TestGoldenCountersParallel runs the same golden scenarios as concurrent
// subtests and holds them to the same golden files. exp.Runner.Parallel
// runs sweep cells on concurrent goroutines in one process, which is
// sound only if every System is self-contained: mutable state shared
// between runs would show up here as a drifted line (and as a data race
// under go test -race).
func TestGoldenCountersParallel(t *testing.T) {
	scenarios := goldenScenarios()
	for _, name := range goldenNames(scenarios) {
		build := scenarios[name]
		for _, proto := range goldenProtocols {
			key := name + "/" + proto
			file := goldenFile(name, proto)
			t.Run(key, func(t *testing.T) {
				t.Parallel()
				checkGolden(t, key, file, runGolden(t, key, build(proto)))
			})
		}
	}
}
