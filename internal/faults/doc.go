// Package faults is the deterministic fault-injection layer: it decides,
// at each of the simulator's fault sites, whether the next message is
// lost or delayed — lost shootdown IPIs in the software protocol,
// dropped invalidation-relay acknowledgments in HATRIC, and outage
// windows on the live-migration link.
//
// # Why the injector is a pure function of seeds
//
// The whole simulator's value rests on replayability: the golden
// files and the experiment harness's cross-run comparisons both
// assume a configuration plus a seed fully determines every observable
// output. Randomness drawn from a clock or a shared RNG stream would
// break both at once — a fault decision would depend on wall time,
// on how many unrelated draws preceded it, or on goroutine interleaving.
//
// The injector therefore computes each decision as a pure hash:
//
//	lost = mix(seed ^ siteSalt ^ seq) < rate * 2^64
//
// where mix is the splitmix64 finalizer, siteSalt separates the per-site
// streams, and seq is the site's own decision counter. Two properties
// follow directly:
//
//   - Replayable: the n-th decision at a site depends only on (seed,
//     site, n). Rerunning the same configuration replays the same fault
//     pattern bit for bit.
//   - Composable: enabling one fault site never perturbs another's
//     stream (sites draw from disjoint hashed streams, and disabled
//     sites consume no sequence numbers), and the same fault pattern can
//     be replayed against different workloads by pinning Config.Seed.
//
// A nil *Injector (the result of an all-zero Config) injects nothing and
// costs one nil check per site: with fault injection disabled the
// simulator is provably inert — bit-identical golden files, zero
// allocations, no extra cycles.
package faults
