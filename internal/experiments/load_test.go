package experiments

import (
	"io"
	"strings"
	"testing"

	"rex/internal/faultnet"
	"rex/internal/loadgen"
)

// TestChaosLoadSimInvariants runs the full chaos-load composition in sim
// mode — workload replay under an injected fault schedule — through the
// one load runner, whose nil error is the verdict: the dispatched schedule
// matches the fault-free digest, every acked rating survives to the final
// snapshots, the outcome accounting covers every event exactly once, and
// the scenario fired.
func TestChaosLoadSimInvariants(t *testing.T) {
	spec := &loadgen.Spec{
		Name: "chaos-tiny", Seed: 9,
		Users: 30, Items: 25, Ticks: 3,
		RatePerUserTick: 0.6, ZipfS: 0.8, QueryFraction: 0.4,
	}
	sc, err := faultnet.Resolve("lossy")
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLoad(LoadConfig{
		Spec: spec, Scenario: sc, Nodes: 2, Workers: 2, Out: io.Discard,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Acked == 0 {
		t.Fatal("no acked ratings — the workload never reached the cluster")
	}
	if res.Scenario != "lossy" {
		t.Fatalf("scenario %q, want lossy", res.Scenario)
	}
}

// TestLoadVerdict breaks each invariant the load runner holds, one at a
// time, on an otherwise clean result: every one must turn into an error,
// and the clean result must not.
func TestLoadVerdict(t *testing.T) {
	clean := func() *LoadResult {
		return &LoadResult{
			Report: &loadgen.Report{
				Events:         100,
				ScheduleDigest: "00000000deadbeef",
				Outcomes:       loadgen.Outcomes{Accepted: 60, RetriedOK: 10, Shed: 29, Failed: 1, Retries: 40},
			},
			Scenario:        "lossy",
			FaultFreeDigest: "00000000deadbeef",
			Acked:           40,
			Faults:          faultnet.Counts{Dropped: 3},
		}
	}
	if err := clean().verdict(); err != nil {
		t.Fatalf("clean result judged broken: %v", err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(*LoadResult)
		want   string
	}{
		{"digest mismatch", func(r *LoadResult) { r.ScheduleDigest = "00000000deadbeee" }, "fault-free"},
		{"missing acked key", func(r *LoadResult) { r.Lost = 1 }, "accept-then-lose"},
		{"outcomes do not sum", func(r *LoadResult) { r.Outcomes.Accepted-- }, "outcomes sum"},
		{"a 400 reject", func(r *LoadResult) { r.Outcomes.Accepted--; r.Outcomes.Rejected++ }, "rejected 400"},
		{"transport failures above 2%", func(r *LoadResult) { r.Outcomes.Accepted -= 2; r.Outcomes.Failed += 2 }, "failed outright"},
		{"shed fraction 0.76", func(r *LoadResult) {
			r.Outcomes = loadgen.Outcomes{Accepted: 24, Shed: 76}
		}, "shed fraction"},
		{"scenario with zero faults", func(r *LoadResult) { r.Faults = faultnet.Counts{} }, "zero faults"},
	} {
		r := clean()
		tc.mutate(r)
		err := r.verdict()
		if err == nil {
			t.Errorf("%s: verdict passed", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	// The bounds themselves are legal: exactly 75% shed and, fault-free,
	// zero injected faults.
	r := clean()
	r.Outcomes = loadgen.Outcomes{Accepted: 25, Shed: 75}
	r.Scenario, r.Faults = "", faultnet.Counts{}
	if err := r.verdict(); err != nil {
		t.Fatalf("result on the bounds judged broken: %v", err)
	}
}
