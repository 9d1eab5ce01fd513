package loadgen

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func tinySpec() *Spec {
	return &Spec{
		Name: "tiny", Seed: 5,
		Users: 40, Items: 30, Ticks: 3,
		RatePerUserTick: 0.5, ZipfS: 0.9, QueryFraction: 0.5,
		Diurnal:     &Diurnal{Amplitude: 0.4, PeriodTicks: 3},
		FlashCrowds: []FlashCrowd{{Item: 7, StartTick: 1, Ticks: 1, Boost: 2, Focus: 0.9}},
	}
}

func TestSpecValidation(t *testing.T) {
	for name, mut := range map[string]func(*Spec){
		"zero-users":       func(s *Spec) { s.Users = 0 },
		"too-many-users":   func(s *Spec) { s.Users = maxUsers + 1 },
		"peak-rate":        func(s *Spec) { s.RatePerUserTick = 1e6 },
		"zero-items":       func(s *Spec) { s.Items = 0 },
		"zero-ticks":       func(s *Spec) { s.Ticks = 0 },
		"negative-rate":    func(s *Spec) { s.RatePerUserTick = -1 },
		"bad-query-frac":   func(s *Spec) { s.QueryFraction = 1.5 },
		"bad-amplitude":    func(s *Spec) { s.Diurnal.Amplitude = 2 },
		"zero-period":      func(s *Spec) { s.Diurnal.PeriodTicks = 0 },
		"flash-bad-item":   func(s *Spec) { s.FlashCrowds[0].Item = 1000 },
		"flash-zero-ticks": func(s *Spec) { s.FlashCrowds[0].Ticks = 0 },
		"flash-bad-focus":  func(s *Spec) { s.FlashCrowds[0].Focus = -0.1 },
	} {
		s := tinySpec()
		mut(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: validated", name)
		}
	}
	if err := tinySpec().Validate(); err != nil {
		t.Fatalf("tiny spec invalid: %v", err)
	}
}

// TestCannedAndResolve: every canned spec validates, resolves by name,
// and a spec written to a JSON file resolves by path — the faultnet
// convention.
func TestCannedAndResolve(t *testing.T) {
	for _, s := range Canned() {
		if err := s.Validate(); err != nil {
			t.Fatalf("canned %q invalid: %v", s.Name, err)
		}
		got, err := Resolve(s.Name)
		if err != nil || got.Name != s.Name {
			t.Fatalf("Resolve(%q): %v %v", s.Name, got, err)
		}
	}
	data, _ := json.Marshal(tinySpec())
	path := filepath.Join(t.TempDir(), "tiny.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := Resolve(path)
	if err != nil || got.Name != "tiny" {
		t.Fatalf("Resolve(file): %v %v", got, err)
	}
	if _, err := Resolve("no-such-spec"); err == nil {
		t.Fatal("bogus spec name resolved")
	}
}

// TestScheduleDeterminism: the schedule is a pure function of
// (spec, seed) — two generators agree event for event, and a different
// seed diverges.
func TestScheduleDeterminism(t *testing.T) {
	spec := tinySpec()
	a, b := NewGen(spec), NewGen(spec)
	var evA, evB []Event
	for tick := 0; tick < spec.Ticks; tick++ {
		evA = a.EventsAt(tick, evA)
		evB = b.EventsAt(tick, evB)
	}
	if len(evA) == 0 {
		t.Fatal("empty schedule")
	}
	if len(evA) != len(evB) {
		t.Fatalf("lengths differ: %d vs %d", len(evA), len(evB))
	}
	for i := range evA {
		if evA[i] != evB[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, evA[i], evB[i])
		}
	}
	if a.ScheduleDigest() != b.ScheduleDigest() {
		t.Fatal("digests differ for identical schedules")
	}
	other := tinySpec()
	other.Seed = 6
	if NewGen(other).ScheduleDigest() == a.ScheduleDigest() {
		t.Fatal("different seeds produced the same digest")
	}
}

// TestZipfActivity: weights normalize to mean 1 and the head of the
// distribution carries the Zipf mass.
func TestZipfActivity(t *testing.T) {
	spec := &Spec{Seed: 3, Users: 1000, Items: 10, Ticks: 1, RatePerUserTick: 1, ZipfS: 1.2}
	g := NewGen(spec)
	var sum, max float64
	for _, w := range g.weight {
		sum += w
		if w > max {
			max = w
		}
	}
	if mean := sum / float64(spec.Users); math.Abs(mean-1) > 1e-9 {
		t.Fatalf("mean weight %v, want 1", mean)
	}
	if max < 20 {
		t.Fatalf("heaviest user weight %v, want a heavy tail (>20x mean)", max)
	}
	// Uniform spec: all weights exactly 1.
	for _, w := range NewGen(&Spec{Seed: 3, Users: 10, Items: 1, Ticks: 1, RatePerUserTick: 1}).weight {
		if w != 1 {
			t.Fatalf("uniform weight %v", w)
		}
	}
}

// TestDiurnalAndFlashCrowd: the flash window multiplies arrivals and
// focuses writes on the hot item; outside the window the hot item gets
// its uniform share.
func TestDiurnalAndFlashCrowd(t *testing.T) {
	spec := &Spec{
		Seed: 9, Users: 400, Items: 100, Ticks: 4,
		RatePerUserTick: 0.5, QueryFraction: 0,
		FlashCrowds: []FlashCrowd{{Item: 3, StartTick: 2, Ticks: 1, Boost: 3, Focus: 0.8}},
	}
	g := NewGen(spec)
	count := make([]int, spec.Ticks)
	hot := make([]int, spec.Ticks)
	var buf []Event
	for tick := 0; tick < spec.Ticks; tick++ {
		buf = g.EventsAt(tick, buf[:0])
		count[tick] = len(buf)
		for _, ev := range buf {
			if ev.Kind == Write && ev.Item == 3 {
				hot[tick]++
			}
		}
	}
	if float64(count[2]) < 2*float64(count[0]) {
		t.Fatalf("flash tick count %d vs baseline %d, want ~3x", count[2], count[0])
	}
	if frac := float64(hot[2]) / float64(count[2]); frac < 0.7 {
		t.Fatalf("hot-item share in window %.2f, want ~0.8", frac)
	}
	if frac := float64(hot[0]) / float64(count[0]); frac > 0.1 {
		t.Fatalf("hot-item share outside window %.2f, want ~1/100", frac)
	}
}

// memTarget accepts every event and keeps every write, a perfect store
// the verdict holds on; used to exercise the runner machinery without a
// cluster. items is the catalog it reports (0 = unknown) and itemsErr its
// preflight error.
type memTarget struct {
	mu       sync.Mutex
	kept     map[uint64]bool
	items    int
	itemsErr error
}

func (m *memTarget) NumItems() (int, error) { return m.items, m.itemsErr }

func (m *memTarget) Do(ev Event) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.kept == nil {
		m.kept = make(map[uint64]bool)
	}
	if ev.Kind == Write {
		m.kept[ackKey(ev.User, ev.Item)] = true
	}
	return 200, nil
}

func (m *memTarget) EndTick(int) error { return nil }
func (m *memTarget) Stop()             {}

func (m *memTarget) Finish() (*Final, error) {
	return &Final{Mode: "sim", Nodes: 1, Ratings: m.kept}, nil
}

// TestDigestIndependentOfWorkers: the schedule digest — and therefore
// the schedule — is identical whatever the dispatch concurrency.
func TestDigestIndependentOfWorkers(t *testing.T) {
	spec := tinySpec()
	var first *Report
	for _, workers := range []int{1, 2, 4} {
		rep, err := Run(spec, &memTarget{}, Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = rep
			continue
		}
		if rep.ScheduleDigest != first.ScheduleDigest {
			t.Fatalf("workers=%d digest %s != workers=1 digest %s", workers, rep.ScheduleDigest, first.ScheduleDigest)
		}
		if rep.Events != first.Events {
			t.Fatalf("workers=%d dispatched %d events, workers=1 dispatched %d", workers, rep.Events, first.Events)
		}
	}
	if first.Events == 0 || first.Client["rate"].Count+first.Client["recommend"].Count != first.Events {
		t.Fatalf("client-side accounting does not cover all %d events: %+v", first.Events, first.Client)
	}
}

// serveLive puts c's serve handlers behind real HTTP listeners, wrapped
// by wrap when it is non-nil, and steps its engines in the background as
// rexd does, until the test ends. It returns the base URLs.
func serveLive(t *testing.T, c *EngineCluster, wrap func(http.Handler) http.Handler) []string {
	t.Helper()
	var urls []string
	for _, sn := range c.nodes {
		h := sn.srv.Handler()
		if wrap != nil {
			h = wrap(h)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-quit:
				return
			default:
			}
			if err := c.stepAll(); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	// Cleanups run last-in first-out: the stepping ends and the engines
	// stop before the listeners close.
	t.Cleanup(func() { close(quit); <-done; c.Stop() })
	return urls
}

// TestSimVsLiveReplay is the end-to-end determinism pin: the same
// spec+seed driven into an in-process engine cluster and replayed over
// real HTTP against live serve handlers produces the identical schedule
// digest, all events are accepted, and both sides surface non-zero
// server-side metrics.
func TestSimVsLiveReplay(t *testing.T) {
	spec := tinySpec()

	sim, err := NewEngineClusterOpts(spec, 2, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	simRep, err := Run(spec, sim, Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}

	// "Live" side: a second cluster's serve handlers behind real HTTP
	// listeners, replayed over sockets.
	live, err := NewEngineClusterOpts(spec, 2, ClusterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tgt, err := NewHTTPTarget(serveLive(t, live, nil), 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	liveRep, err := Run(spec, tgt, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	if simRep.ScheduleDigest != liveRep.ScheduleDigest {
		t.Fatalf("sim digest %s != live digest %s", simRep.ScheduleDigest, liveRep.ScheduleDigest)
	}
	for mode, rep := range map[string]*Report{"sim": simRep, "live": liveRep} {
		for _, ep := range []string{"rate", "recommend"} {
			cl := rep.Client[ep]
			if cl.Count == 0 {
				t.Fatalf("%s: no %s requests recorded", mode, ep)
			}
			for code := range cl.Statuses {
				if code != 200 {
					t.Fatalf("%s %s: unexpected status %d (%v)", mode, ep, code, cl.Statuses)
				}
			}
			srv, ok := rep.Server[ep]
			if !ok || srv.Count != cl.Count {
				t.Fatalf("%s %s: server saw %d requests, client sent %d", mode, ep, srv.Count, cl.Count)
			}
			if srv.P50Ms <= 0 || srv.P50Ms > srv.P99Ms {
				t.Fatalf("%s %s: percentiles not sane: %+v", mode, ep, srv.LatencySummary)
			}
		}
	}
	// The sim cluster trains an epoch per tick: stage percentiles must be
	// populated (warm-up epoch + one per tick, per node).
	tr, ok := simRep.Stages["train"]
	if !ok || tr.Count < uint64(spec.Ticks)*2 {
		t.Fatalf("sim stage histograms missing or thin: %+v", simRep.Stages)
	}
	if simRep.Stages["merge"].Count != tr.Count {
		t.Fatalf("stage counts diverge: %+v", simRep.Stages)
	}
}

// TestSpecFilesMatchCanned pins the checked-in specs/ files to the
// canned definitions: `rexbench -load steady` and
// `rexbench -load specs/steady.json` must be the same workload.
func TestSpecFilesMatchCanned(t *testing.T) {
	for _, want := range Canned() {
		path := filepath.Join("..", "..", "specs", want.Name+".json")
		got, err := Load(path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if string(gb) != string(wb) {
			t.Fatalf("%s drifted from the canned spec:\n file:   %s\n canned: %s", path, gb, wb)
		}
	}
}
