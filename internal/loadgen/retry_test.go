package loadgen

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"rex/internal/serve"
)

// TestRetryBackoffDeterministic pins the retry schedule's contract:
// backoff is a pure function of (event, attempt), exponential in the
// attempt, with jitter bounded by the jitter parameter — so a retried
// run replays exactly, on any worker layout.
func TestRetryBackoffDeterministic(t *testing.T) {
	ev := Event{Tick: 2, Seq: 1, User: 17, Kind: Write, Item: 5, Value: 3}
	base, jitter := 50*time.Millisecond, 20*time.Millisecond

	for attempt := 1; attempt <= 4; attempt++ {
		a := RetryBackoff(ev, attempt, base, jitter)
		b := RetryBackoff(ev, attempt, base, jitter)
		if a != b {
			t.Fatalf("attempt %d: %v != %v — backoff not deterministic", attempt, a, b)
		}
		lo := base << (attempt - 1)
		if a < lo || a >= lo+jitter {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, a, lo, lo+jitter)
		}
	}

	// Different events land on different jitter offsets (with overwhelming
	// probability over a handful of events).
	same := 0
	for u := uint32(0); u < 8; u++ {
		other := ev
		other.User = 100 + u
		if RetryBackoff(other, 1, base, jitter) == RetryBackoff(ev, 1, base, jitter) {
			same++
		}
	}
	if same == 8 {
		t.Fatal("jitter identical across 8 distinct events — hash not feeding through")
	}

	// Attempt clamps: below 1 behaves as 1, the shift stops doubling at 16.
	if RetryBackoff(ev, 0, base, 0) != base {
		t.Fatal("attempt 0 not clamped to the first-retry backoff")
	}
	if RetryBackoff(ev, 40, base, 0) != base<<15 {
		t.Fatal("attempt 40 not clamped to the 16th doubling")
	}
}

func TestRetryable(t *testing.T) {
	for _, tc := range []struct {
		status int
		err    error
		want   bool
	}{
		{200, nil, false},
		{400, nil, false},
		{429, nil, true},
		{500, nil, false},
		{503, nil, true},
		{0, errors.New("conn refused"), true},
	} {
		if got := Retryable(tc.status, tc.err); got != tc.want {
			t.Errorf("Retryable(%d, %v) = %v, want %v", tc.status, tc.err, got, tc.want)
		}
	}
}

// scriptedTarget answers each event by its user id class, tracking
// per-event attempt counts so retry behavior is observable:
//
//	user%5 == 0 → 429 on the first attempt, 200 after (retried_ok)
//	user%5 == 1 → always 429                          (shed)
//	user%5 == 2 → always 400                          (rejected)
//	user%5 == 3 → always a transport error            (failed)
//	otherwise   → 200                                 (accepted)
type scriptedTarget struct {
	memTarget // keeps the writes answered 200
	attempts  map[uint64]int
}

func (s *scriptedTarget) Do(ev Event) (int, error) {
	s.mu.Lock()
	s.attempts[ev.Digest()]++
	n := s.attempts[ev.Digest()]
	s.mu.Unlock()
	switch ev.User % 5 {
	case 0:
		if n == 1 {
			return 429, nil
		}
		return s.memTarget.Do(ev)
	case 1:
		return 429, nil
	case 2:
		return 400, nil
	case 3:
		return 0, fmt.Errorf("scripted transport error")
	default:
		return s.memTarget.Do(ev)
	}
}

// TestRunnerRetryOutcomes drives a schedule into the scripted target and
// checks that every event is classified exactly once, retry budgets are
// honored per class, the verdict reads those outcomes, and the schedule
// digest ignores dispatch attempts.
func TestRunnerRetryOutcomes(t *testing.T) {
	spec := tinySpec()
	tgt := &scriptedTarget{attempts: make(map[uint64]int)}
	const budget = 2
	rep, err := Run(spec, tgt, Options{
		Workers: 3, Retries: budget,
		RetryBase: time.Microsecond, RetryJitter: time.Microsecond,
	})
	if rep == nil {
		t.Fatal(err)
	}
	// Every acked write was kept, so the first broken invariant is the
	// scripted 400s.
	if err == nil || !strings.Contains(err.Error(), "rejected 400") {
		t.Fatalf("verdict %v, want the scripted 400s", err)
	}

	// Recompute the expected classification from the schedule itself.
	var want Outcomes
	gen := NewGen(spec)
	var buf []Event
	for tick := 0; tick < spec.Ticks; tick++ {
		buf = gen.EventsAt(tick, buf[:0])
		for _, ev := range buf {
			switch ev.User % 5 {
			case 0:
				want.RetriedOK++
				want.Retries++ // one 429, then success
			case 1:
				want.Shed++
				want.Retries += budget // full budget burned
			case 2:
				want.Rejected++ // 400 is final, no retries
			case 3:
				want.Failed++
				want.Retries += budget // transport errors retry too
			default:
				want.Accepted++
			}
		}
	}
	if rep.Outcomes != want {
		t.Fatalf("outcomes %+v, want %+v", rep.Outcomes, want)
	}
	total := want.Accepted + want.RetriedOK + want.Shed + want.Rejected + want.Failed
	if total != rep.Events {
		t.Fatalf("outcome sum %d != events %d", total, rep.Events)
	}

	// The digest fingerprints generated events, not attempts: a retry-free
	// run of the same spec reports the same digest.
	plain, err := Run(spec, &memTarget{}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.ScheduleDigest != rep.ScheduleDigest {
		t.Fatalf("digest changed under retries: %s vs %s", rep.ScheduleDigest, plain.ScheduleDigest)
	}
}

// TestPreflightCatalogCoverage: a spec whose item universe exceeds the
// target's catalog must fail fast with the fix spelled out, before any
// event is dispatched; an unknown catalog (0) skips the check.
func TestPreflightCatalogCoverage(t *testing.T) {
	spec := tinySpec() // 30 items
	_, err := Run(spec, &memTarget{items: 10}, Options{})
	if err == nil {
		t.Fatal("undersized catalog passed preflight")
	}
	for _, frag := range []string{"30 items", "10 items", "-scale"} {
		if !strings.Contains(err.Error(), frag) {
			t.Fatalf("preflight error %q missing %q", err, frag)
		}
	}

	if _, err := Run(spec, &memTarget{items: 0}, Options{}); err != nil {
		t.Fatalf("unknown catalog (0) should skip the preflight: %v", err)
	}
	if _, err := Run(spec, &memTarget{items: 30}, Options{}); err != nil {
		t.Fatalf("exact-fit catalog rejected: %v", err)
	}
	if _, err := Run(spec, &memTarget{itemsErr: fmt.Errorf("node down")}, Options{}); err == nil {
		t.Fatal("preflight swallowed a scrape error")
	}
}

// TestSimClusterAdmissionSheds turns the serving-edge gates on inside the
// sim cluster: with a near-zero refill rate every node admits its burst
// and sheds the rest 429, the runner classifies them as shed, and the
// schedule digest still matches a fault-free run.
func TestSimClusterAdmissionSheds(t *testing.T) {
	spec := tinySpec()
	cluster, err := NewEngineClusterOpts(spec, 2, ClusterOptions{
		Admission: serve.AdmissionConfig{RatePerSec: 0.001, Burst: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(spec, cluster, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes.Shed == 0 {
		t.Fatal("no sheds with a 0.001/s rate limit — admission not wired into the sim cluster")
	}
	if rep.Outcomes.Accepted == 0 {
		t.Fatal("nothing accepted — burst tokens not honored")
	}
	if got := rep.Client["rate"].Statuses[429]; got == 0 {
		t.Fatalf("no client-observed 429s: %v", rep.Client["rate"].Statuses)
	}
	// Queries are not rate-gated: every recommend answer is 200.
	for code := range rep.Client["recommend"].Statuses {
		if code != 200 {
			t.Fatalf("recommend saw status %d under write-side admission", code)
		}
	}
	want := fmt.Sprintf("%016x", NewGen(spec).ScheduleDigest())
	if rep.ScheduleDigest != want {
		t.Fatalf("digest %s != schedule %s", rep.ScheduleDigest, want)
	}
}
