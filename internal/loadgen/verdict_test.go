package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	goruntime "runtime"
	"strings"
	"testing"
	"time"

	"rex/internal/faultnet"
	"rex/internal/serve"
)

// TestChaosLoadSimInvariants runs the full chaos-load composition in sim
// mode — workload replay under an injected fault schedule — through the
// one load runner, whose nil error is the verdict: the dispatched schedule
// matches the fault-free digest, every acked rating survives to the final
// snapshots, the outcome accounting covers every event exactly once, and
// the scenario fired.
func TestChaosLoadSimInvariants(t *testing.T) {
	spec := &Spec{
		Name: "chaos-tiny", Seed: 9,
		Users: 30, Items: 25, Ticks: 3,
		RatePerUserTick: 0.6, ZipfS: 0.8, QueryFraction: 0.4,
	}
	sc, err := faultnet.Resolve("lossy")
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewEngineClusterOpts(spec, 2, ClusterOptions{Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, cluster, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Acked == 0 {
		t.Fatal("no acked ratings — the workload never reached the cluster")
	}
	if rep.Scenario != "lossy" {
		t.Fatalf("scenario %q, want lossy", rep.Scenario)
	}
}

// TestFaultFreeScenarioVerdict runs the canned "faultfree" scenario, which
// is named but injects nothing by design: the sim run passes and its
// header still names the scenario. An enabled scenario that injected
// nothing still fails.
func TestFaultFreeScenarioVerdict(t *testing.T) {
	spec := &Spec{
		Name: "faultfree-tiny", Seed: 9,
		Users: 30, Items: 25, Ticks: 3,
		RatePerUserTick: 0.6, ZipfS: 0.8, QueryFraction: 0.4,
	}
	sc, err := faultnet.Resolve("faultfree")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Enabled() {
		t.Fatal("the faultfree scenario injects faults")
	}
	cluster, err := NewEngineClusterOpts(spec, 2, ClusterOptions{Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, cluster, Options{Workers: 2})
	if err != nil {
		t.Fatalf("fault-free run judged broken: %v", err)
	}
	var head bytes.Buffer
	rep.Fprint(&head)
	if !strings.Contains(head.String(), `scenario "faultfree"`) {
		t.Fatalf("header does not name the scenario:\n%s", head.String())
	}

	rep.ScenarioEnabled = true
	err = rep.verdict()
	if want := `scenario "faultfree" injected zero faults`; err == nil || err.Error() != want {
		t.Fatalf("enabled scenario with zero faults: verdict %v, want %q", err, want)
	}
}

// TestLoadVerdict breaks each invariant the load runner holds, one at a
// time, on an otherwise clean report: every one must turn into an error,
// and the clean report must not.
func TestLoadVerdict(t *testing.T) {
	clean := func() *Report {
		return &Report{
			Events:          100,
			ScheduleDigest:  "00000000deadbeef",
			Outcomes:        Outcomes{Accepted: 60, RetriedOK: 10, Shed: 29, Failed: 1, Retries: 40},
			Scenario:        "lossy",
			ScenarioEnabled: true,
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
		mutate func(*Report)
		want   string
	}{
		{"digest mismatch", func(r *Report) { r.ScheduleDigest = "00000000deadbeee" }, "fault-free"},
		{"missing acked key", func(r *Report) { r.Lost = 1 }, "accept-then-lose"},
		{"outcomes do not sum", func(r *Report) { r.Outcomes.Accepted-- }, "outcomes sum"},
		{"a 400 reject", func(r *Report) { r.Outcomes.Accepted--; r.Outcomes.Rejected++ }, "rejected 400"},
		{"transport failures above 2%", func(r *Report) { r.Outcomes.Accepted -= 2; r.Outcomes.Failed += 2 }, "failed outright"},
		{"shed fraction 0.76", func(r *Report) {
			r.Outcomes = Outcomes{Accepted: 24, Shed: 76}
		}, "shed fraction"},
		{"scenario with zero faults", func(r *Report) { r.Faults = faultnet.Counts{} }, "zero faults"},
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
	r.Outcomes = Outcomes{Accepted: 25, Shed: 75}
	r.Scenario, r.ScenarioEnabled, r.Faults = "", false, faultnet.Counts{}
	if err := r.verdict(); err != nil {
		t.Fatalf("result on the bounds judged broken: %v", err)
	}
}

// failAt is a target whose EndTick fails at one tick.
type failAt struct {
	Target
	tick int
}

func (f failAt) EndTick(t int) error {
	if t == f.tick {
		return fmt.Errorf("injected failure at tick %d", t)
	}
	return f.Target.EndTick(t)
}

// TestFailedRunGoroutinesEnd: a sim run whose target fails mid-run
// still stops the engines, their runner goroutines and the cluster's
// protocol goroutines, so NumGoroutine returns to its baseline.
func TestFailedRunGoroutinesEnd(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	base := goruntime.NumGoroutine()
	spec := tinySpec()
	cluster, err := NewEngineClusterOpts(spec, 2, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, failAt{Target: cluster, tick: 1}, Options{Workers: 2})
	if rep != nil || err == nil || !strings.Contains(err.Error(), "injected failure") {
		t.Fatalf("run through a failing tick: report %v, error %v", rep != nil, err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for goruntime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 10 s after a failed run, baseline %d", goruntime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// soloWrite returns a write that spec's schedule issues exactly once, for
// a (user, item) pair no seed shard of a two-node cluster holds: once it
// is lost, no other copy of the pair can reach a snapshot.
func soloWrite(t *testing.T, spec *Spec) Event {
	t.Helper()
	count := make(map[uint64]int)
	for i := 0; i < 2; i++ {
		for _, r := range simRatings(spec, 2, i) {
			count[ackKey(r.User, r.Item)] += 2 // a seeded pair is never written once
		}
	}
	var writes, buf []Event
	gen := NewGen(spec)
	for tick := 0; tick < spec.Ticks; tick++ {
		buf = gen.EventsAt(tick, buf[:0])
		for _, ev := range buf {
			if ev.Kind == Write {
				count[ackKey(ev.User, ev.Item)]++
				writes = append(writes, ev)
			}
		}
	}
	for _, ev := range writes {
		if count[ackKey(ev.User, ev.Item)] == 1 {
			return ev
		}
	}
	t.Fatal("every write's pair repeats")
	return Event{}
}

// TestLiveVerdict drives the live final check in process: an engine
// cluster's handlers behind HTTP listeners, its engines stepping in the
// background as rexd's do, replayed through HTTPTarget, whose Finish
// settles, reads /status and unions the /snapshot ratings. The verdict
// passes; when a handler answers one POST /rate 200 without forwarding
// it, the verdict is accept-then-lose.
func TestLiveVerdict(t *testing.T) {
	spec := tinySpec()
	lost := soloWrite(t, spec)
	dropOne := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/rate" {
				body, _ := io.ReadAll(r.Body)
				var rt serve.Rating
				if json.Unmarshal(body, &rt) == nil && rt.User == lost.User && rt.Item == lost.Item {
					return // an implicit 200, and the rating goes nowhere
				}
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
			h.ServeHTTP(w, r)
		})
	}
	for _, tc := range []struct {
		name string
		wrap func(http.Handler) http.Handler
		lost uint64
	}{
		{"forwarded", nil, 0},
		{"one rate dropped", dropOne, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cluster, err := NewEngineClusterOpts(spec, 2, ClusterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			tgt, err := NewHTTPTarget(serveLive(t, cluster, tc.wrap), 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := Run(spec, tgt, Options{Workers: 2})
			if rep == nil {
				t.Fatal(err)
			}
			if rep.Mode != "live" || rep.Acked == 0 || rep.Lost != tc.lost {
				t.Fatalf("%s mode, %d acked, %d lost; want live, some acked, %d lost", rep.Mode, rep.Acked, rep.Lost, tc.lost)
			}
			switch {
			case tc.lost == 0 && err != nil:
				t.Fatalf("verdict: %v", err)
			case tc.lost > 0 && (err == nil || !strings.Contains(err.Error(), "accept-then-lose")):
				t.Fatalf("verdict %v, want accept-then-lose", err)
			}
		})
	}
}
