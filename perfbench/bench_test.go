package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"hatric/internal/hv"
	"hatric/internal/sim"
)

// tinySizes keeps every storm source firing while running in well under a
// second per workload.
var tinySizes = sizes{hotRefs: 2_000, stormRefs: 12_000, campRefs: 500, mixes: 1, setupReps: 2}

type benchSpec struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTinyRunsEmitEveryMetric runs each workload at a tiny size, untraced
// and traced, and checks that every metric BENCHMARK.json names comes out
// with its unit, and nothing else does.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			cfg := &config{workload: w, seed: 3, seconds: 0.5, trace: traced,
				artifacts: t.TempDir(), sz: tinySizes}
			res, err := run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics emitted, BENCHMARK.json names %d", w, traced, len(res.Metrics), len(want))
			}
			if traced {
				sum := 0.0
				for name, m := range res.Metrics {
					if strings.HasSuffix(name, ".self_share") {
						sum += m.Value
					}
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: self shares sum to %v, want 1", w, sum)
				}
			}
		}
	}
}

// TestCorruptedResultFailsOperation seeds one stale use, one missing
// reference, one hatric IPI and one changed counter into a good result;
// each must count as a failed operation. Only the changed counter is
// checked against a reference run, so each check is exercised alone.
func TestCorruptedResultFailsOperation(t *testing.T) {
	p := hotpathPlan(5, tinySizes)
	m := &p.unit[0]
	sys, err := sim.New(m.opts)
	if err != nil {
		t.Fatal(err)
	}
	good, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{p: p}
	b.op(checkMachine(m, good, good))
	if b.failed != 0 {
		t.Fatalf("a good result failed its checks: %v", b.problems)
	}
	for _, c := range []struct {
		name    string
		corrupt func(r *sim.Result)
		ref     *sim.Result
	}{
		{"stale use", func(r *sim.Result) { r.Agg.StaleTranslationUses = 1 }, nil},
		{"missing reference", func(r *sim.Result) { r.Agg.MemRefs-- }, nil},
		{"hatric IPI", func(r *sim.Result) { r.Agg.IPIs = 1 }, nil},
		{"changed counter", func(r *sim.Result) { r.Agg.Walks++ }, good},
	} {
		bad := *good
		c.corrupt(&bad)
		before := b.failed
		b.op(checkMachine(m, &bad, c.ref))
		if b.failed != before+1 {
			t.Errorf("%s: failed went %d -> %d, want one more", c.name, before, b.failed)
		}
	}
}

// TestFoldTop checks that the profile fold buckets functions by package
// and accounts for every sample.
func TestFoldTop(t *testing.T) {
	text := `File: perfbench
Type: cpu
Duration: 1s, Total samples = 100ns (10.00%)
Showing nodes accounting for 100ns, 100% of 100ns total
      flat  flat%   sum%        cum   cum%
      40ns 40.00% 40.00%       60ns 60.00%  hatric/internal/coherence.(*Hierarchy).Read
      20ns 20.00% 60.00%       20ns 20.00%  hatric/internal/tstruct.(*Struct).findIn (inline)
      15ns 15.00% 75.00%       15ns 15.00%  runtime.mallocgc
      10ns 10.00% 85.00%       10ns 10.00%  hatric/internal/stats.(*Counters).Add
       5ns  5.00% 90.00%        5ns  5.00%  main.(*bench).unit
      10ns 10.00%   100%       10ns 10.00%  hatric/internal/sim.(*System).step
`
	shares, err := foldTop([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"coherence": 0.4, "tstruct": 0.2, "runtime": 0.15, "sim": 0.1, "other": 0.15}
	sum := 0.0
	for l, v := range shares {
		sum += v
		if math.Abs(v-want[l]) > 1e-12 {
			t.Errorf("%s share %v, want %v", l, v, want[l])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if _, err := foldTop([]byte(strings.Replace(text, "      10ns 10.00%   100%", "       9ns 10.00%   100%", 1))); err == nil {
		t.Error("a fold that misses samples was accepted")
	}
}

// TestQuantileMatchesPython pins quantile to statistics.quantiles(n=4).
func TestQuantileMatchesPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, med, q3 := quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

// TestStormCheck breaks each storm condition in turn on a passing pair.
func TestStormCheck(t *testing.T) {
	pair := func() (sw, ha *sim.Result) {
		mk := func(p string, shootdown uint64) *sim.Result {
			r := &sim.Result{Protocol: p, Migrations: []hv.MigrationReport{{Completed: true}}}
			r.Agg.ShootdownCycles = shootdown
			r.Agg.KSMMerges, r.Agg.KSMBreaks, r.Agg.CompactionMoves = 3, 2, 5
			return r
		}
		return mk("sw", 100), mk("hatric", 0)
	}
	if bad := checkStorm(pair()); len(bad) != 0 {
		t.Fatalf("a passing pair failed: %v", bad)
	}
	for name, corrupt := range map[string]func(sw, ha *sim.Result){
		"sw shootdowns not above hatric": func(sw, ha *sim.Result) { ha.Agg.ShootdownCycles = sw.Agg.ShootdownCycles },
		"no KSM breaks":                  func(sw, ha *sim.Result) { ha.Agg.KSMBreaks = 0 },
		"no compaction":                  func(sw, ha *sim.Result) { sw.Agg.CompactionMoves = 0 },
		"migration unfinished":           func(sw, ha *sim.Result) { ha.Migrations[0].Completed = false },
	} {
		sw, ha := pair()
		corrupt(sw, ha)
		if len(checkStorm(sw, ha)) == 0 {
			t.Errorf("%s: not reported", name)
		}
	}
}
