// Package lint implements hatriclint, a static-analysis suite that
// enforces the simulator's determinism and zero-allocation contracts at
// the line that would break them, instead of leaving violations to be
// discovered as golden-file mismatches many PRs later.
//
// # The determinism contract
//
// The paper's evaluation rests on cycle-exact, bit-identical simulation:
// the golden files in internal/sim/testdata/golden assert that the
// same Options produce the same counters bit for bit, run after run,
// machine after machine. Three properties of the code make that true, and
// each has a dedicated analyzer:
//
//   - No iteration-order dependence. Go randomizes map iteration order, so
//     any `range` over a map whose body does more than collect keys for
//     sorting can change simulated results (or error messages) from run to
//     run. The mapiter analyzer flags such loops in the
//     determinism-critical packages; suppress with
//     `//hatric:mapiter-ok <reason>` when order provably cannot matter.
//
//   - No unseeded nondeterminism sources. All randomness must flow through
//     the seeded generators in internal/xrand; wall-clock time, math/rand,
//     environment lookups, and sync.Map iteration have no place on a
//     simulated path. The nondet analyzer bans them outright
//     (`//hatric:nondet-ok <reason>` for the rare tool-side exception) and
//     requires a rationale annotation on every sync.Map declaration.
//
//   - No allocation on the per-reference hot path. PR 5 made the steady
//     state allocation-free and TestSteadyStateZeroAllocs guards it at
//     runtime; the hotalloc analyzer moves that gate to compile time.
//     Functions annotated `//hatric:hotpath` — and every same-package
//     function they statically call — may not contain allocation-causing
//     constructs (make/new/append, escaping composite literals, interface
//     boxing, capturing closures, string concatenation, go statements).
//     Cold error paths inside hot functions carry
//     `//hatric:alloc-ok <reason>`.
//
// A fourth analyzer, counterflow, guards the counter plumbing the
// golden files are built from: every field of stats.Counters must be
// uint64, must be aggregated by (*Counters).Add and subtracted by
// (*Counters).Sub (reflective bodies count as full coverage), and every
// function annotated `//hatric:counters-sink` — the golden renderer and
// table formatters — must either reference every field or walk the struct
// reflectively, so a new counter can never silently vanish from
// aggregation or output.
//
// # Annotations
//
// All annotations are `//hatric:` directive comments (no space after the
// slashes, so gofmt and godoc treat them as directives):
//
//	//hatric:hotpath              marks a function as allocation-free
//	//hatric:counters-sink        marks a full-coverage counter formatter
//	//hatric:mapiter-ok <reason>  suppresses mapiter / sync.Map findings
//	//hatric:nondet-ok <reason>   suppresses nondet findings
//	//hatric:alloc-ok <reason>    suppresses hotalloc findings
//
// The -ok forms require a non-empty reason and suppress findings on their
// own line and the line directly below; hatriclint reports malformed or
// misplaced annotations itself, so a typoed suppression fails the build
// rather than silently disabling a check.
//
// # Running
//
//	go run ./cmd/hatriclint ./...
//
// The binary loads packages (test variants included) via `go list
// -export`, type-checks them against the compiler's export data, runs the
// four analyzers, and exits nonzero if any diagnostic remains.
package lint
