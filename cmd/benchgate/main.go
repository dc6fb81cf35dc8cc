// Command benchgate runs BenchmarkSimulatorThroughput and gates CI on it:
// it executes the benchmark several times, converts each run to simulated
// references per second, writes the trajectory (plus the median and the
// comparison against the committed baseline) to a JSON artifact, and exits
// nonzero when the median regresses more than the allowed fraction below
// the baseline.
//
// It also times one whole sweep — a paperfigs-quick campaign run
// in-process — and records its wall-clock in the artifact. Single-run
// refs/sec measures the simulator inner loop; the sweep wall-clock is the
// number a user actually waits on (cell fan-out across cores included), so
// the artifact keeps both trajectories observable. The sweep is
// informational only: it never fails the gate.
//
// The committed baseline (bench/baseline_throughput.json) records the
// median refs/sec on the machine that set it, so the gate is meaningful on
// comparable runners and the artifact keeps the refs/sec trajectory
// observable over time either way.
//
// Usage (CI):
//
//	go run ./cmd/benchgate -count 5 -benchtime 3x \
//	    -baseline bench/baseline_throughput.json -out BENCH_throughput.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"time"

	"hatric/internal/exp"
)

// Report is the JSON artifact the gate writes.
type Report struct {
	Benchmark     string    `json:"benchmark"`
	RefsPerSec    []float64 `json:"refs_per_sec"`
	MedianRefsSec float64   `json:"median_refs_per_sec"`
	// MinRefsSec is the worst run of the series: on a loaded runner the
	// median still wanders, so the artifact keeps the conservative end of
	// the trajectory observable alongside it.
	MinRefsSec     float64 `json:"min_refs_per_sec"`
	Baseline       float64 `json:"baseline_refs_per_sec,omitempty"`
	Ratio          float64 `json:"ratio_vs_baseline,omitempty"`
	MaxRegression  float64 `json:"max_regression"`
	Pass           bool    `json:"pass"`
	BaselineSource string  `json:"baseline_source,omitempty"`
	// Note carries free-form context about the measuring host (-note),
	// so a committed trajectory seed can say when its absolute numbers
	// came from a machine unlike the baseline's.
	Note string `json:"note,omitempty"`

	// Whole-sweep wall-clock: one paperfigs-quick campaign timed
	// in-process (informational; never gates).
	SweepFigures   []string `json:"sweep_figures,omitempty"`
	SweepRefs      uint64   `json:"sweep_refs_per_thread,omitempty"`
	SweepWallSec   float64  `json:"sweep_wall_clock_sec,omitempty"`
	SweepFigPerSec float64  `json:"sweep_figures_per_sec,omitempty"`
}

// runSweep times a paperfigs-quick campaign (every figure the default
// cmd/paperfigs invocation regenerates) and fills the sweep fields.
func runSweep(rep *Report, refs uint64) error {
	r := exp.Quick()
	if refs > 0 {
		r.Refs = refs
	}
	figures := []struct {
		name string
		run  func() error
	}{
		{"fig2", func() error { _, err := r.Figure2(); return err }},
		{"fig7", func() error { _, err := r.Figure7(); return err }},
		{"fig8", func() error { _, err := r.Figure8(); return err }},
		{"fig9", func() error { _, err := r.Figure9(); return err }},
		{"fig10", func() error { _, err := r.Figure10(); return err }},
		{"fig11L", func() error { _, err := r.Figure11Left(); return err }},
		{"fig11R", func() error { _, err := r.Figure11Right(); return err }},
		{"fig12", func() error { _, err := r.Figure12(); return err }},
		{"fig13", func() error { _, err := r.Figure13(); return err }},
		{"xen", func() error { _, err := r.XenTable(); return err }},
		{"micro", func() error { _, err := r.MicroCosts(); return err }},
		{"dedup", func() error { _, err := r.Dedup(); return err }},
	}
	start := time.Now()
	for _, f := range figures {
		if err := f.run(); err != nil {
			return fmt.Errorf("%s: %w", f.name, err)
		}
		rep.SweepFigures = append(rep.SweepFigures, f.name)
	}
	wall := time.Since(start).Seconds()
	rep.SweepRefs = r.Refs
	rep.SweepWallSec = wall
	if wall > 0 {
		rep.SweepFigPerSec = float64(len(figures)) / wall
	}
	return nil
}

// Baseline is the committed reference point.
type Baseline struct {
	MedianRefsSec float64 `json:"median_refs_per_sec"`
	Machine       string  `json:"machine,omitempty"`
	Note          string  `json:"note,omitempty"`
}

var benchLine = regexp.MustCompile(`BenchmarkSimulatorThroughput\S*\s+\d+\s+(\S+) ns/op\s+(\S+) refs/op`)

func main() {
	count := flag.Int("count", 5, "benchmark repetitions")
	benchtime := flag.String("benchtime", "3x", "go test -benchtime value")
	baselinePath := flag.String("baseline", "bench/baseline_throughput.json", "committed baseline JSON")
	outPath := flag.String("out", "BENCH_throughput.json", "artifact output path")
	maxReg := flag.Float64("max-regression", 0.15, "fail when median falls more than this fraction below baseline")
	sweep := flag.Bool("sweep", true, "also time one paperfigs-quick campaign in-process")
	sweepRefs := flag.Uint64("sweep-refs", 0, "refs per thread for the sweep (0 = exp.Quick default)")
	note := flag.String("note", "", "free-form host/context note recorded in the artifact")
	flag.Parse()

	cmd := exec.Command("go", "test", "-run", "^$",
		"-bench", "BenchmarkSimulatorThroughput",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count), ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: benchmark failed: %v\n%s", err, out)
		os.Exit(1)
	}

	var refsSec []float64
	for _, m := range benchLine.FindAllStringSubmatch(string(out), -1) {
		nsOp, err1 := strconv.ParseFloat(m[1], 64)
		refsOp, err2 := strconv.ParseFloat(m[2], 64)
		if err1 != nil || err2 != nil || nsOp <= 0 {
			continue
		}
		refsSec = append(refsSec, refsOp/(nsOp/1e9))
	}
	if len(refsSec) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no benchmark lines parsed from:\n%s", out)
		os.Exit(1)
	}

	sorted := append([]float64(nil), refsSec...)
	sort.Float64s(sorted)
	median := sorted[len(sorted)/2]
	if len(sorted)%2 == 0 {
		median = (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	}

	rep := Report{
		Benchmark:     "BenchmarkSimulatorThroughput",
		RefsPerSec:    refsSec,
		MedianRefsSec: median,
		MinRefsSec:    sorted[0],
		MaxRegression: *maxReg,
		Pass:          true,
		Note:          *note,
	}
	if data, err := os.ReadFile(*baselinePath); err == nil {
		var base Baseline
		if err := json.Unmarshal(data, &base); err == nil && base.MedianRefsSec > 0 {
			rep.Baseline = base.MedianRefsSec
			rep.Ratio = median / base.MedianRefsSec
			rep.BaselineSource = *baselinePath
			rep.Pass = rep.Ratio >= 1-*maxReg
		}
	} else {
		fmt.Fprintf(os.Stderr, "benchgate: no baseline at %s; recording trajectory only\n", *baselinePath)
	}

	if *sweep {
		if err := runSweep(&rep, *sweepRefs); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: sweep failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchgate: sweep (%d figures, %d refs/thread) took %.1fs\n",
			len(rep.SweepFigures), rep.SweepRefs, rep.SweepWallSec)
	}

	data, _ := json.MarshalIndent(rep, "", "  ")
	data = append(data, '\n')
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: writing %s: %v\n", *outPath, err)
		os.Exit(1)
	}
	fmt.Printf("benchgate: median %.0f refs/sec over %d runs", median, len(refsSec))
	if rep.Baseline > 0 {
		fmt.Printf(" (%.2fx of baseline %.0f)", rep.Ratio, rep.Baseline)
	}
	fmt.Println()
	if !rep.Pass {
		fmt.Fprintf(os.Stderr, "benchgate: FAIL: median %.0f refs/sec is below %.0f%% of baseline %.0f\n",
			median, (1-*maxReg)*100, rep.Baseline)
		os.Exit(1)
	}
}
