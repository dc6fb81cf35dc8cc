// Command perfbench is the repository's benchmark. It runs one workload
// of the simulator at a seed for a fixed time, checks every result, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) as the last line of its output:
//
//	perfbench --workload hotpath --seed 1 --seconds 20 --trace 0
//
// run.py builds it from source and runs it; README.md describes the
// workloads, the metrics and how they map onto each other.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"time"

	"hatric/internal/exp"
	"hatric/internal/sim"
	"hatric/internal/workload"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark invocation.
type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	artifacts string // directory for the span log and CPU profile
	sz        sizes
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: hotpath, storm or campaign")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1 prints per-layer metrics from a traced run instead of the end-to-end metrics")
	flag.StringVar(&cfg.artifacts, "artifacts", ".bench_build/trace", "where a traced run writes its spans and CPU profile")
	flag.Parse()
	if flag.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || cfg.seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = traceFlag == 1
	cfg.sz = benchSizes
	res, err := run(&cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench is the state of one run.
type bench struct {
	p  *plan
	tr *tracer
	// attempted and failed count operations: one machine, or one figure
	// of the campaign. problems says why each failed one failed.
	attempted, failed int
	problems          []string
	audit             map[string]*sim.Result
	// probeSys is the probe machine after its audit run; probeOpts built it.
	probeSys  *sim.System
	probeOpts *sim.Options
	firstFigs *figures
}

func (b *bench) op(bad []string) {
	b.attempted++
	if len(bad) > 0 {
		b.failed++
		b.problems = append(b.problems, bad...)
	}
}

// runMachine builds and runs one machine, turning a panic into an error,
// and returns how long Run took.
func (b *bench) runMachine(m *machine, parent int) (sys *sim.System, res *sim.Result, runD float64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: panic: %v", m.name, p)
		}
	}()
	id := b.tr.begin("sim.New "+m.name, parent)
	sys, err = sim.New(m.opts)
	b.tr.end(id)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("%s: sim.New: %w", m.name, err)
	}
	id = b.tr.begin("sim.Run "+m.name, parent)
	t0 := time.Now()
	res, err = sys.Run()
	runD = time.Since(t0).Seconds()
	b.tr.end(id)
	if err != nil {
		return nil, nil, runD, fmt.Errorf("%s: Run: %w", m.name, err)
	}
	return sys, res, runD, nil
}

// runAudit runs every audit machine once with the stale-translation audit
// on and checks it.
func (b *bench) runAudit() {
	id := b.tr.begin("audit", 0)
	defer b.tr.end(id)
	bad := make([][]string, len(b.p.audit))
	for i := range b.p.audit {
		m := b.p.audit[i]
		m.opts.CheckStale = true
		sys, res, _, err := b.runMachine(&m, id)
		if err != nil {
			bad[i] = []string{err.Error()}
			continue
		}
		b.audit[m.name] = res
		if m.name == b.p.probe {
			b.probeSys, b.probeOpts = sys, &b.p.audit[i].opts
		}
		bad[i] = checkMachine(&m, res, nil)
	}
	if sw, ha := b.audit["sw"], b.audit["hatric"]; b.p.name == "storm" && sw != nil && ha != nil {
		i := slices.IndexFunc(b.p.audit, func(m machine) bool { return m.name == "hatric" })
		bad[i] = append(bad[i], checkStorm(sw, ha)...)
	}
	for _, x := range bad {
		b.op(x)
	}
}

// setupMachines are the machines whose sim.New time setup_s measures.
func (b *bench) setupMachines() []machine {
	if b.p.runner != nil {
		return b.p.audit
	}
	return b.p.unit
}

// setupReps builds the workload's machines n times without running them
// and returns the total sim.New time of each repetition.
func (b *bench) setupReps(n int) []float64 {
	ms := b.setupMachines()
	var out []float64
	for rep := 0; rep < n; rep++ {
		runtime.GC()
		id := b.tr.begin("setup", 0)
		total := 0.0
		for i := range ms {
			sid := b.tr.begin("sim.New "+ms[i].name, id)
			t0 := time.Now()
			_, err := sim.New(ms[i].opts)
			total += time.Since(t0).Seconds()
			b.tr.end(sid)
			if err != nil {
				b.op([]string{fmt.Sprintf("%s: sim.New: %v", ms[i].name, err)})
			}
		}
		b.tr.end(id)
		out = append(out, total)
	}
	return out
}

// unitSample is one timed unit's measurements.
type unitSample struct {
	wall, run float64 // seconds
	refs      uint64
	rss       float64 // peak resident set during the unit, MB
}

// loop repeats timed units until d has passed (at least one unit). Each
// starts after a collection, with the peak resident set reset, so units
// do not inherit each other's garbage.
func (b *bench) loop(d time.Duration) []unitSample {
	var out []unitSample
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		runtime.GC()
		resetPeakRSS()
		u := b.unit()
		u.rss = peakRSSMB()
		out = append(out, u)
	}
	return out
}

func (b *bench) unit() unitSample {
	id := b.tr.begin("unit", 0)
	defer b.tr.end(id)
	if b.p.runner != nil {
		return b.campaignUnit(id)
	}
	var u unitSample
	t0 := time.Now()
	for i := range b.p.unit {
		m := &b.p.unit[i]
		_, res, runD, err := b.runMachine(m, id)
		u.run += runD
		if err != nil {
			b.op([]string{err.Error()})
			continue
		}
		u.refs += res.Agg.MemRefs
		b.op(checkMachine(m, res, b.audit[m.name]))
	}
	u.wall = time.Since(t0).Seconds()
	return u
}

// figure calls one Figure method under a span, turning a panic into an
// error.
func figure[T any](b *bench, parent int, name string, fn func() (T, error)) (out T, err error) {
	id := b.tr.begin(name, parent)
	defer b.tr.end(id)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s: panic: %v", name, p)
		}
	}()
	out, err = fn()
	if err != nil {
		err = fmt.Errorf("%s: %w", name, err)
	}
	return out, err
}

func (b *bench) campaignUnit(parent int) unitSample {
	r := b.p.runner
	t0 := time.Now()
	var f figures
	var errs [3]error
	f.fig2, errs[0] = figure(b, parent, "exp.Figure2", r.Figure2)
	f.fig13, errs[1] = figure(b, parent, "exp.Figure13", r.Figure13)
	f.fig10, errs[2] = figure(b, parent, "exp.Figure10", r.Figure10)
	u := unitSample{wall: time.Since(t0).Seconds(), refs: campaignRefs(r)}

	if b.firstFigs == nil {
		b.firstFigs = &f
	}
	first := b.firstFigs
	var bad [3][]string
	for i, err := range errs {
		if err != nil {
			bad[i] = []string{err.Error()}
		}
	}
	rows := len(workload.BigFive())
	if errs[0] == nil {
		if len(f.fig2.Rows) != rows {
			bad[0] = append(bad[0], fmt.Sprintf("Figure2 has %d rows, want %d", len(f.fig2.Rows), rows))
		}
		if first.fig2 != nil && !reflect.DeepEqual(f.fig2, first.fig2) {
			bad[0] = append(bad[0], "Figure2 changed between runs of one seed")
		}
	}
	if errs[1] == nil {
		bad[1] = append(bad[1], checkFig13(f.fig13, b.audit)...)
		if first.fig13 != nil && !reflect.DeepEqual(f.fig13, first.fig13) {
			bad[1] = append(bad[1], "Figure13 changed between runs of one seed")
		}
	}
	if errs[2] == nil {
		if len(f.fig10.Rows) != r.Mixes {
			bad[2] = append(bad[2], fmt.Sprintf("Figure10 has %d rows, want %d", len(f.fig10.Rows), r.Mixes))
		}
		if first.fig10 != nil && !reflect.DeepEqual(f.fig10, first.fig10) {
			bad[2] = append(bad[2], "Figure10 changed between runs of one seed")
		}
	}
	for _, x := range bad {
		b.op(x)
	}
	return u
}

// run executes one benchmark invocation and returns its result line;
// human-readable detail goes to out.
func run(cfg *config, out io.Writer) (*result, error) {
	p, err := newPlan(cfg.workload, cfg.seed, cfg.sz)
	if err != nil {
		return nil, err
	}
	host := newHostInfo(cfg.workload, cfg.seed)
	hostLine, _ := json.Marshal(host)
	fmt.Fprintf(out, "# host %s\n", hostLine)

	b := &bench{p: p, tr: newTracer(), audit: map[string]*sim.Result{}}
	b.tr.on = cfg.trace
	b.runAudit()

	metrics := map[string]metric{}
	detail := map[string]string{}
	set := func(name string, v float64, unit string) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		metrics[name] = metric{Value: v, Unit: unit}
	}
	d := time.Duration(cfg.seconds * float64(time.Second))

	if !cfg.trace {
		setups := b.setupReps(cfg.sz.setupReps)
		units := b.loop(d)
		timing := func(name, unit string, xs []float64) {
			set(name, median(xs), unit)
			detail[name] = fmt.Sprintf("median of %d; quartiles %.6g .. %.6g, range %.6g .. %.6g",
				len(xs), quantile(xs, 0.25), quantile(xs, 0.75), quantile(xs, 0), quantile(xs, 1))
		}
		var rate, wall, rss []float64
		for _, u := range units {
			busy := u.run
			if p.runner != nil {
				busy = u.wall
			}
			rate = append(rate, float64(u.refs)/busy)
			wall = append(wall, u.wall)
			rss = append(rss, u.rss)
		}
		timing("refs_per_sec", "refs/s", rate)
		timing("wall_s", "s", wall)
		timing("setup_s", "s", setups)
		set("peak_rss_mb", median(rss), "MB")
		detail["peak_rss_mb"] = fmt.Sprintf("median of %d per-unit peaks", len(rss))
		if b.complete() {
			var fig13 *exp.Fig13Result
			if b.firstFigs != nil {
				fig13 = b.firstFigs.fig13
			}
			m := modeledMetrics(p, b.audit, fig13)
			set("sim_mcycles", m.mcycles, "Mcycles")
			set("hatric_speedup", m.speedup, "ratio")
			set("hatric_energy_vs_sw", m.energy, "ratio")
		}
	} else if err := b.traced(cfg, d, set); err != nil {
		return nil, err
	}

	res := &result{Correct: b.failed == 0 && b.attempted > 0, Attempted: b.attempted, Failed: b.failed, Metrics: metrics}
	errRate := 0.0
	if b.attempted > 0 {
		errRate = float64(b.failed) / float64(b.attempted)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "%-34s %-14.6g %-12s %s\n", n, metrics[n].Value, metrics[n].Unit, detail[n])
	}
	fmt.Fprintf(out, "%-34s %-14.6g %-12s %d of %d operations failed\n", "error_rate", errRate, "fraction", b.failed, b.attempted)
	for _, pr := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", pr)
	}
	return res, nil
}

// complete reports whether every audit machine (and, for the campaign,
// the first Figure13) produced a result the modeled metrics can use.
func (b *bench) complete() bool {
	return len(b.audit) == len(b.p.audit) && (b.p.runner == nil || b.firstFigs.fig13 != nil)
}

// traced runs the per-layer measurement: half the time untraced, half with
// spans and a CPU profile on, then the replay probes.
func (b *bench) traced(cfg *config, d time.Duration, set func(string, float64, string)) error {
	p := b.p
	b.tr.on = false
	rt0, cpu0, t0 := readRuntime(), cpuTime(), time.Now()
	plain := b.loop(d / 2)
	rt1, cpu1, wall := readRuntime(), cpuTime(), time.Since(t0).Seconds()

	if err := os.MkdirAll(cfg.artifacts, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.artifacts, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	pf, err := os.Create(base + ".pprof")
	if err != nil {
		return err
	}
	b.tr.on = true
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return err
	}
	b.setupReps(max(cfg.sz.setupReps/5, 1))
	traced := b.loop(d / 2)
	pprof.StopCPUProfile()
	if err := pf.Close(); err != nil {
		return err
	}

	var refs uint64
	for _, u := range plain {
		refs += u.refs
	}
	set("trace.overhead", median(walls(traced))/median(walls(plain)), "ratio")
	set("exp.cpu_util", (cpu1-cpu0).Seconds()/(wall*float64(p.parallel)), "ratio")
	set("runtime.gc_share", (rt1.gcCPU-rt0.gcCPU)/(rt1.busyCPU-rt0.busyCPU), "share")
	set("runtime.alloc_bytes_per_ref", (rt1.allocBytes-rt0.allocBytes)/float64(refs), "B/ref")
	set("sim.new_s", median(b.tr.sumByUnit("setup", "sim.New")), "s")
	runUnit := "unit"
	if p.runner != nil {
		runUnit = "audit"
	}
	set("sim.run_s", median(b.tr.sumByUnit(runUnit, "sim.Run")), "s")
	for _, f := range []struct{ metric, span string }{
		{"exp.fig2_s", "exp.Figure2"}, {"exp.fig13_s", "exp.Figure13"}, {"exp.fig10_s", "exp.Figure10"},
	} {
		set(f.metric, median(b.tr.sumByUnit("unit", f.span)), "s")
	}

	var results []*sim.Result
	for _, m := range b.setupMachines() {
		if r := b.audit[m.name]; r != nil {
			results = append(results, r)
		}
	}
	counterMetrics(set, results)

	if b.probeSys != nil {
		id := b.tr.begin("probe workload.NextBatch", 0)
		nsRef, refsP := replayStreams(b.probeOpts)
		b.tr.end(id)
		id = b.tr.begin("probe tstruct.Lookup", 0)
		nsLookup := lookupNS(b.probeSys, refsP)
		b.tr.end(id)
		id = b.tr.begin("probe coherence.Read/Write", 0)
		nsAccess := accessNS(b.probeSys, refsP)
		b.tr.end(id)
		set("workload.ns_per_ref", nsRef, "ns")
		set("tstruct.ns_per_lookup", nsLookup, "ns")
		set("coherence.ns_per_access", nsAccess, "ns")
	}

	shares, err := foldProfile(base + ".pprof")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: profile fold:", err)
		shares = map[string]float64{}
	}
	for _, l := range buckets {
		set(l+".self_share", shares[l], "share")
	}
	return b.tr.write(base+".spans.jsonl", newHostInfo(cfg.workload, cfg.seed))
}

func walls(us []unitSample) []float64 {
	out := make([]float64, len(us))
	for i, u := range us {
		out[i] = u.wall
	}
	return out
}
