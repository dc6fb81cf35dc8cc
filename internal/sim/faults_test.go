package sim

import (
	"sync"
	"testing"

	"hatric/internal/arch"
	"hatric/internal/faults"
	"hatric/internal/hv"
)

// faultOpts builds a fault-heavy scenario exercising every injector site:
// two consolidated VMs, a live migration of VM 0 (link-outage site, and a
// storm of remaps for the IPI/ack sites), and a balloon with a scheduled
// deflation on VM 1, under nonzero loss rates on every site.
func faultOpts(protocol string, seed uint64) Options {
	specA := smokeSpec()
	specA.Threads = 2
	specB := smokeSpec()
	specB.Name = "smokeB"
	specB.Threads = 2
	return Options{
		Config:   smokeConfig(),
		Protocol: protocol,
		Paging:   hv.PagingConfig{Policy: "lru"},
		Mode:     hv.ModePaged,
		VMs: []VMSpec{
			{Workloads: []AssignedWorkload{{Spec: specA, CPUs: []int{0, 1}}}},
			{Workloads: []AssignedWorkload{{Spec: specB, CPUs: []int{2, 3}}}},
		},
		Migrations: []hv.MigrationSpec{{VM: 0, At: 30_000, Dest: arch.TierDRAM, MaxRounds: 4}},
		Balloons:   []hv.BalloonSpec{{VM: 1, At: 40_000, Frames: 96, DeflateAt: 60_000}},
		Seed:       seed,
		CheckStale: true,
		Faults: faults.Config{
			IPILossRate:    0.20,
			AckLossRate:    0.20,
			LinkOutageRate: 0.10,
		},
	}
}

func runFaultOpts(t *testing.T, opts Options) *Result {
	t.Helper()
	sys, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	res, err := sys.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// TestFaultDeterminism is the injector's core property: a fault-injected
// run is a pure function of its seeds. Every protocol, at several seeds,
// must render bit-identically when rerun (and the whole test reruns
// under -count=2 in CI, which also pins cross-process determinism).
func TestFaultDeterminism(t *testing.T) {
	for _, p := range []string{"sw", "hatric", "hatric-pf", "unitd", "ideal"} {
		for _, seed := range []uint64{1, 7, 23} {
			a := runFaultOpts(t, faultOpts(p, seed))
			b := runFaultOpts(t, faultOpts(p, seed))
			for _, d := range goldenDiff(goldenText(b), goldenText(a)) {
				t.Errorf("%s/seed=%d: rerun diverged: %s", p, seed, d)
			}
			// The run must actually have exercised the injector, or the
			// property is vacuous.
			if len(a.Migrations) != 1 || !a.Migrations[0].Completed {
				t.Errorf("%s/seed=%d: migration did not complete under faults", p, seed)
			}
			switch p {
			case "sw":
				if a.Agg.IPIsLost == 0 || a.Agg.ShootdownRetries == 0 {
					t.Errorf("%s/seed=%d: IPI fault site never fired", p, seed)
				}
			case "hatric", "hatric-pf":
				if a.Agg.AcksLost == 0 || a.Agg.RelayReissues == 0 {
					t.Errorf("%s/seed=%d: ack fault site never fired", p, seed)
				}
			}
			if a.Agg.BalloonReturns == 0 {
				t.Errorf("%s/seed=%d: balloon deflation returned nothing", p, seed)
			}
		}
	}
}

// TestFaultDeterminismParallel runs fault-injected scenarios on concurrent
// goroutines, as exp.Runner.Parallel runs sweep cells, and requires each
// to render exactly as its sequential run. The injector's per-site
// streams belong to one System, so concurrent runs must not perturb each
// other's fault decisions.
func TestFaultDeterminismParallel(t *testing.T) {
	type job struct {
		protocol string
		seed     uint64
	}
	var jobs []job
	for _, p := range []string{"sw", "hatric", "unitd", "ideal"} {
		for _, seed := range []uint64{1, 23} {
			jobs = append(jobs, job{p, seed})
		}
	}
	want := make([]string, len(jobs))
	for i, j := range jobs {
		res := runFaultOpts(t, faultOpts(j.protocol, j.seed))
		if j.protocol == "sw" && res.Agg.IPIsLost == 0 {
			t.Errorf("%s/seed=%d: IPI fault site never fired", j.protocol, j.seed)
		}
		want[i] = goldenText(res)
	}
	got := make([]string, len(jobs))
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sys, err := New(faultOpts(j.protocol, j.seed))
			if err != nil {
				errs[i] = err
				return
			}
			res, err := sys.Run()
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = goldenText(res)
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		if errs[i] != nil {
			t.Errorf("%s/seed=%d: concurrent run: %v", j.protocol, j.seed, errs[i])
		} else {
			for _, d := range goldenDiff(got[i], want[i]) {
				t.Errorf("%s/seed=%d: concurrent run diverged from sequential: %s",
					j.protocol, j.seed, d)
			}
		}
	}
}

// TestFaultKnobsInert pins the provably-inert contract from the other
// side: an explicitly zeroed faults.Config must construct no injector at
// all, so a run with it renders identically to a run that never
// mentioned faults.
func TestFaultKnobsInert(t *testing.T) {
	mk := func() Options {
		return migrationOpts("sw", smokeSpec(), smokeSpec(),
			hv.MigrationSpec{VM: 0, At: 30_000, Dest: arch.TierDRAM, MaxRounds: 4})
	}
	plain := runFaultOpts(t, mk())
	zeroed := mk()
	zeroed.Faults = faults.Config{IPITimeoutCycles: 99, AckTimeoutCycles: 99, MaxRetries: 3}
	withZero := runFaultOpts(t, zeroed)
	for _, d := range goldenDiff(goldenText(withZero), goldenText(plain)) {
		t.Errorf("zero-rate faults.Config changed the run: %s", d)
	}
	if withZero.Agg.IPIsLost != 0 || withZero.Agg.ShootdownRetries != 0 {
		t.Errorf("zero-rate config fired fault sites")
	}
}
