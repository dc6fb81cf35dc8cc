package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// span is one timed call the benchmark made into the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	// Start and End are nanoseconds since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// tracer records spans in memory. A nil or disabled tracer records
// nothing, so untraced runs pay one branch per call.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent and returns its id (0 when off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil || !t.on {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: int64(time.Since(t.t0))})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	t.spans[id-1].End = int64(time.Since(t.t0))
}

// sumByUnit totals the durations of spans named name under each unit
// span (spans whose name is unitName) and returns one total per unit.
func (t *tracer) sumByUnit(unitName, name string) []float64 {
	idx := map[int]int{}
	var out []float64
	for _, s := range t.spans {
		if s.Name == unitName {
			idx[s.ID] = len(out)
			out = append(out, 0)
		}
	}
	for _, s := range t.spans {
		if i, ok := idx[s.Parent]; ok && strings.HasPrefix(s.Name, name) {
			out[i] += float64(s.End-s.Start) / 1e9
		}
	}
	return out
}

// write stores the spans as JSON lines after a header line describing
// the run.
func (t *tracer) write(path string, header any) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}

// layers are the profile buckets reported as <layer>.self_share: the
// repository's simulator packages, the experiment harness, and the Go
// runtime. Flat time anywhere else (arch, energy, stats, the standard
// library, the benchmark itself) is "other".
var layers = []string{
	"sim", "workload", "xrand", "walker", "tstruct", "lrurank", "pagetable",
	"cache", "coherence", "memdev", "core", "hv", "faults", "exp", "runtime",
}

// buckets are the layers plus "other": every bucket a fold reports.
var buckets = append(layers[:len(layers):len(layers)], "other")

const internalPrefix = "hatric/internal/"

// layerOf maps a profiled function name to its bucket.
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		for _, l := range layers {
			if l == pkg {
				return l
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/internal") {
		return "runtime"
	}
	return "other"
}

// foldProfile folds a CPU profile's flat time into layer shares with the
// toolchain's pprof.
func foldProfile(path string) (map[string]float64, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodefraction=0", "-nodecount=1000000", "-unit=ns", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.Bytes())
	}
	return foldTop(out)
}

// foldTop folds `pprof -top -unit=ns` text into per-layer shares of the
// profile's total plus an "other" share. It fails unless the listed flat
// times account for every sample of the total.
func foldTop(text []byte) (map[string]float64, error) {
	var total int64 = -1
	flat := map[string]int64{}
	var listed int64
	inTable := false
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !inTable {
			if _, after, ok := strings.Cut(line, "% of "); ok && strings.HasSuffix(line, " total") {
				v, err := parseNS(strings.TrimSuffix(after, " total"))
				if err != nil {
					return nil, err
				}
				total = v
			}
			inTable = strings.Contains(line, "flat%") && strings.Contains(line, "cum%")
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		v, err := parseNS(f[0])
		if err != nil {
			return nil, err
		}
		listed += v
		flat[layerOf(f[5])] += v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if total <= 0 {
		return nil, fmt.Errorf("pprof output has no sample total")
	}
	if listed != total {
		return nil, fmt.Errorf("pprof rows account for %dns of %dns", listed, total)
	}
	shares := map[string]float64{}
	for _, l := range buckets {
		shares[l] = float64(flat[l]) / float64(total)
	}
	return shares, nil
}

func parseNS(s string) (int64, error) {
	v, err := strconv.ParseInt(strings.TrimSuffix(s, "ns"), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("pprof value %q: %w", s, err)
	}
	return v, nil
}
