package main

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"runtime/debug"
	"time"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
)

// The seven end-to-end metrics, in report order. Every workload reports
// every one of them; BENCHMARK.json fixes unit, direction and bound.
var e2eNames = []string{
	"setup_s", "recommend_ms_p50", "wire_kb_per_epoch",
	"final_rmse", "alloc_mb_per_epoch", "allocs_per_epoch", "heap_live_mb",
}

// epochMS is the eighth metric ISSUE 17 lists. It is measured and printed
// on every run like the others, but it is a per-layer metric: on this
// class of host its run-to-run spread exceeds the 10 % a timing may have
// (README, "Demoted"), and the issue has such a metric demoted, not
// shipped with a wider bound.
const epochMS = "epoch_ms"

var e2eUnits = map[string]string{
	"setup_s": "s", epochMS: "ms", "recommend_ms_p50": "ms",
	"wire_kb_per_epoch": "KB", "final_rmse": "rmse",
	"alloc_mb_per_epoch": "MB", "allocs_per_epoch": "1", "heap_live_mb": "MB",
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// reps is how many measured repetitions a run makes: a constant, so
	// that the fastest-of-R estimator is the same estimator on every
	// commit. Sized for about 25 s on the reference box when it is quiet.
	reps int
	run  func(e *env) (*rep, error)
}

// workloads in report order. The names are declared in BENCHMARK.json.
var workloads = []workload{
	{"rex-secure", 26, func(e *env) (*rep, error) { return runCluster(e, rexSecure) }},
	{"ms-tcp", 28, func(e *env) (*rep, error) { return runCluster(e, msTCP) }},
	{"sim-10k", 20, runSim},
	{"serve-rw", 28, runServeRW},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// env is what one repetition is handed. Everything a repetition builds
// derives from seed and corpusSeed; nothing else reaches the program under
// test.
type env struct {
	seed  int64
	smoke bool
	rep   int
	// tr records spans when this is a traced repetition; nil otherwise.
	tr *tracer
	// tmp is a scratch directory inside the checkout. A repetition
	// removes whatever it creates there.
	tmp string
	// gc is the run's collection schedule: the calibration repetition
	// writes it, the measured ones replay it (see lapTimer).
	gc *gcPlan
	// corrupt makes the harness damage one /recommend answer before
	// checking it; a test uses it to show the gate catches a wrong output.
	corrupt bool
}

// sample is one per-layer number with its unit and how many measurements
// stand behind it.
type sample struct {
	value float64
	unit  string
	n     int
	note  string
}

// nodeState is node 0 at the end of a repetition: the real inputs the
// serving probe and the layer replay work on.
type nodeState struct {
	model    *mf.Model
	ratings  []dataset.Rating
	test     []dataset.Rating
	numItems int
	mode     core.Mode
}

// rep is what one repetition measured.
type rep struct {
	// e2e holds this repetition's own value of every end-to-end metric and
	// of epoch_ms.
	e2e map[string]float64
	// Laps of the three timing metrics, in ms: durations between
	// deterministic points of the repetition's execution, so lap k is
	// the same work in every repetition of a run. setup_s is the sum of
	// setupLaps, epoch_ms the sum of windowLaps over epochs,
	// recommend_ms_p50 the median of recLaps (one lap per call).
	setupLaps, windowLaps, recLaps []float64
	// gcs are the blocking collections the lap timer ran, in order, each
	// timed on its own; charge[k] is the share of collection k that counts
	// in setup_s and in epoch_ms (see gcPlan).
	gcs    []float64
	charge [][2]float64
	epochs int
	// wireSlackKB is how far wire_kb_per_epoch may differ between
	// repetitions of one run; zero means bit-equal. final_rmse is always
	// bit-equal.
	wireSlackKB float64
	attempted   int
	failed      int
	violations  []string
	// stage holds the per-layer numbers only a live repetition can
	// produce (stage accumulators, duplicate ratios). Filled on traced
	// repetitions.
	stage map[string]sample
	state *nodeState
}

func (r *rep) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
	r.failed++
}

// window measures what the steady part of a repetition allocates between
// open and close, and the live heap at close with the system under test
// still resident.
type window struct {
	m0    goruntime.MemStats
	alloc float64 // bytes
	objs  float64
	live  float64 // bytes
}

func (w *window) open() { goruntime.ReadMemStats(&w.m0) }

// close ends the window with a timed collection: the one that what the
// window allocated since its last collection is charged for.
func (w *window) close(lt *lapTimer) {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	w.alloc = float64(m.TotalAlloc - w.m0.TotalAlloc)
	w.objs = float64(m.Mallocs - w.m0.Mallocs)
	lt.collect()
	goruntime.ReadMemStats(&m)
	w.live = float64(m.HeapAlloc)
}

// measureLive takes the live heap again: the TCP workload calls it once
// frames still in flight at close have landed.
func (w *window) measureLive() {
	var m goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&m)
	w.live = float64(m.HeapAlloc)
}

// charged is the cost of collections gcs that section sec (0 set-up,
// 1 window) is charged with.
func charged(gcs []float64, charge [][2]float64, sec int) float64 {
	t := 0.0
	for k := 0; k < len(gcs) && k < len(charge); k++ {
		t += gcs[k] * charge[k][sec]
	}
	return t
}

// record fills the repetition's own end-to-end values that come from the
// window, the laps and the collections, for a window of `epochs` epochs.
func (r *rep) record(w *window, lt *lapTimer, epochs int) {
	n := float64(epochs)
	r.epochs = epochs
	r.gcs, r.charge = lt.gcs, lt.plan.charge
	r.e2e["setup_s"] = (sum(r.setupLaps) + charged(r.gcs, r.charge, 0)) / 1e3
	r.e2e[epochMS] = (sum(r.windowLaps) + charged(r.gcs, r.charge, 1)) / n
	r.e2e["recommend_ms_p50"] = median(r.recLaps)
	r.e2e["alloc_mb_per_epoch"] = w.alloc / 1e6 / n
	r.e2e["allocs_per_epoch"] = w.objs / n
	r.e2e["heap_live_mb"] = w.live / 1e6
}

// corpusSeed generates everything that decides how much work a repetition
// does: the ratings, their train/test split, which node holds which user,
// the serve-rw request schedule, the simulated topology, and the node RNGs
// of ms-tcp, sim-10k and serve-rw (see there). The run's seed drives the
// rest: rex-secure's node RNGs, attestation entropy, the TCP port block.
// The acceptance driver compares runs on different seeds against bounds
// of 1-2 % on bytes, RMSE and allocation, and reseeding any of the pinned
// inputs moves one of the metrics by about its bound (README, "Seed").
const corpusSeed = 33

// gcPlan is the garbage collection of a run's repetitions, fixed by the
// calibration repetition: the lap boundaries, counted from the start of a
// repetition, at which a collection is due, and for every collection of a
// repetition, in order, what share of its cost set-up and the window are
// charged.
//
// A collection is caused by the bytes allocated since the previous one, so
// a cycle that straddles a section's edge is charged to either side by the
// bytes each allocated, and the window is closed by a collection of which
// it is charged the part of a cycle it had got through. The window's
// charges therefore move in proportion to what it allocates; were whole
// collections counted where they fall, a change of a few bytes could move
// one across the window's edge, and with two collections in a window that
// is half the cost.
type gcPlan struct {
	at         []int
	charge     [][2]float64
	calibrated bool
}

// lapTimer stamps points of a repetition's execution that are the same in
// every repetition — the harness's own calls into the program returning —
// and keeps the durations between them, in ms.
//
// It also owns garbage collection for the repetition. Left to itself the
// collector runs concurrently, a quarter of the one P at a time, starting
// wherever its pacer decides: its cost would land in different laps in
// every repetition, and the lap-by-lap minimum would drop it. So the
// background collector is switched off and the timer runs blocking
// collections at lap boundaries, each timed on its own. Which boundaries
// is decided once per run, by the calibration repetition: it reads the
// heap at every boundary and collects on the collector's own rule (the
// heap has grown by its live size, or 4 MB, since the last collection:
// GOGC=100). The measured repetitions do the same work, so they replay
// that schedule without looking at the heap or the clock.
type lapTimer struct {
	plan     *gcPlan
	last     time.Time
	laps     []float64
	gcs      []float64
	boundary int // lap boundaries passed
	next     int // plan.at[next] is the next collection to replay
	restored int // the GC percent to put back

	// Calibration only: the current collection cycle.
	section int       // 0 set-up, 1 window, 2 after it
	seen    uint64    // TotalAlloc when last looked at
	cycle   [3]uint64 // bytes this cycle allocated, by section
	growth  uint64    // bytes a cycle allocates before its collection is due
}

// minHeapGrowth is the collector's own floor: it does not start a cycle
// before the heap has grown by 4 MB.
const minHeapGrowth = 4 << 20

func newLapTimer(plan *gcPlan) *lapTimer {
	l := &lapTimer{plan: plan}
	l.restored = debug.SetGCPercent(-1)
	goruntime.GC() // every repetition starts from a collected heap
	l.newCycle()
	l.last = time.Now()
	return l
}

// stop hands garbage collection back to the runtime.
func (l *lapTimer) stop() { debug.SetGCPercent(l.restored) }

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// newCycle starts a collection cycle on the heap a collection just left.
func (l *lapTimer) newCycle() {
	if l.plan.calibrated {
		return
	}
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	l.seen, l.growth, l.cycle = m.TotalAlloc, max(m.HeapAlloc, minHeapGrowth), [3]uint64{}
}

// look adds what was allocated since the last look to the current cycle
// and section, and reports whether a collection is due.
func (l *lapTimer) look() bool {
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	l.cycle[l.section] += m.TotalAlloc - l.seen
	l.seen = m.TotalAlloc
	return l.cycle[0]+l.cycle[1]+l.cycle[2] >= l.growth
}

// collect runs a collection now and times it. The calibration repetition
// notes what share of it set-up and the window allocated for.
func (l *lapTimer) collect() {
	if !l.plan.calibrated {
		l.look()
		// A collection that came due is charged whole; one forced before
		// its cycle was over (the window's closing one) for the part of
		// the cycle that had passed.
		g := float64(max(l.growth, l.cycle[0]+l.cycle[1]+l.cycle[2]))
		l.plan.charge = append(l.plan.charge, [2]float64{float64(l.cycle[0]) / g, float64(l.cycle[1]) / g})
	}
	t0 := time.Now()
	goruntime.GC()
	l.gcs = append(l.gcs, msSince(t0))
	l.newCycle()
}

// pass counts a lap boundary, collects if the schedule says so, and
// restarts the lap clock: time spent here belongs to no lap.
func (l *lapTimer) pass() {
	l.boundary++
	if l.plan.calibrated {
		if l.next < len(l.plan.at) && l.plan.at[l.next] == l.boundary {
			l.next++
			l.collect()
		}
	} else if l.look() {
		l.plan.at = append(l.plan.at, l.boundary)
		l.collect()
	}
	l.last = time.Now()
}

// mark ends a lap at a boundary.
func (l *lapTimer) mark() {
	l.laps = append(l.laps, msSince(l.last))
	l.pass()
}

// skip is a boundary between timed calls that are not laps: what ran since
// the last boundary is dropped.
func (l *lapTimer) skip() { l.pass() }

// take ends a section — set-up, then the window — and returns its laps.
func (l *lapTimer) take() []float64 {
	if !l.plan.calibrated {
		l.look()
		l.section = min(l.section+1, 2)
	}
	laps := l.laps
	l.laps, l.last = nil, time.Now()
	return laps
}

// mlData is the MovieLens-shaped input shared by the three engine
// workloads: the corpus and its placement on nodes.
type mlData struct {
	ds          *dataset.Dataset
	train, test [][]dataset.Rating
}

func buildMLData(e *env, lt *lapTimer, parent int, scale float64, nodes int) (*mlData, error) {
	sp := e.tr.begin("movielens.Generate", parent)
	spec := movielens.Latest().Scaled(scale)
	spec.Seed = corpusSeed
	ds := movielens.Generate(spec)
	e.tr.end(sp)
	lt.mark()

	sp = e.tr.begin("dataset.SplitPartition", parent)
	defer lt.mark()
	defer e.tr.end(sp)
	tr, te := ds.SplitPerUser(0.7, rand.New(rand.NewSource(corpusSeed)))
	train, err := tr.PartitionUsersAcross(nodes, rand.New(rand.NewSource(corpusSeed)))
	if err != nil {
		return nil, fmt.Errorf("partitioning train: %w", err)
	}
	test, err := te.PartitionUsersAcross(nodes, rand.New(rand.NewSource(corpusSeed)))
	if err != nil {
		return nil, fmt.Errorf("partitioning test: %w", err)
	}
	return &mlData{ds: ds, train: train, test: test}, nil
}

func newMF() model.Model { return mf.New(mf.DefaultConfig()) }

// kb converts bytes to decimal kilobytes: 1 KB = 1000 B.
func kb(bytes float64) float64 { return bytes / 1e3 }
