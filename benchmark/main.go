// Command benchmark is the REX benchmark: four deterministic workloads,
// eight end-to-end metrics reported by each, and a per-layer ledger taken
// in a separate traced run. BENCHMARK.json at the repository root declares
// every name it prints; README.md beside this file is the glossary and the
// measurement protocol.
//
//	go run ./benchmark -workload rex-secure -seed 33 -seconds 30 -trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 when every
// output was correct, 1 when a check failed, 2 on a usage or environment
// error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strings"
	"time"

	"rex/internal/vec"
)

// minReps is how few repetitions the -seconds cap may leave a run with. A
// run makes its workload's fixed number of repetitions; the cap cuts that
// short only when the host is so slow that they do not fit.
const minReps = 8

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	reps     int // development only; 0 = the workload's own count
	smoke    bool
	corrupt  bool // tests only: damage one answer; the run must fail
	out      string
	aa       int
}

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: all four, one after the other)")
	fs.Int64Var(&o.seed, "seed", 33, "seeds what is random in an execution: rex-secure node RNGs, attestation entropy, TCP port block (the corpus, its placement, the simulated topology and the request schedule are fixed)")
	fs.Float64Var(&o.seconds, "seconds", 30, "time cap of one run: repetitions that do not fit are cut, never below 8")
	fs.IntVar(&trace, "trace", 0, "1 = traced run: per-layer metrics and benchmark/out/trace-<workload>.json")
	fs.IntVar(&o.reps, "reps", 0, "development: repetition count instead of the workload's own")
	fs.BoolVar(&o.smoke, "smoke", false, "development: tiny sizes, two repetitions")
	fs.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for traces and temporary files")
	fs.IntVar(&o.aa, "aa", 0, "run two interleaved sets of N runs of every workload and compare them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace != 0
	return execute(o, stdout, stderr)
}

// execute runs the command with parsed options.
func execute(o options, stdout, stderr io.Writer) int {
	if o.trace && o.reps == 1 {
		fmt.Fprintln(stderr, "benchmark: a traced run needs an untraced and a traced repetition: -reps 2 or more")
		return 2
	}
	// The protocol fixes the runtime's knobs: a run under another GC
	// target or kernel set measures another program.
	for _, v := range []string{"GOGC", "GOMEMLIMIT", "REX_VEC"} {
		if os.Getenv(v) != "" {
			fmt.Fprintf(stderr, "benchmark: %s is set; unset it, the protocol fixes it\n", v)
			return 2
		}
	}
	// One P: epoch_ms is then the total work of all nodes in a cluster
	// epoch, not an outcome of how eight goroutines were scheduled onto
	// two shared vCPUs.
	goruntime.GOMAXPROCS(1)

	if o.aa > 0 {
		return runAA(o, stdout, stderr)
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	printHost(stdout, o)
	code := 0
	for _, name := range names {
		wl := workloadByName(name)
		if wl == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", name)
			return 2
		}
		res, err := runWorkload(wl, o)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", name, err)
			return 2
		}
		res.print(stdout)
		line, _ := json.Marshal(res.line())
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.correct() {
			code = 1
		}
	}
	return code
}

// printHost records what the numbers were measured on.
func printHost(w io.Writer, o options) {
	fmt.Fprintf(w, "# host: GOMAXPROCS=%d nproc=%d vec=%s %s %s/%s cpu=%q\n",
		goruntime.GOMAXPROCS(0), goruntime.NumCPU(), vec.Impl(), goruntime.Version(),
		goruntime.GOOS, goruntime.GOARCH, cpuModel())
	fmt.Fprintf(w, "# seed=%d seconds=%g trace=%v", o.seed, o.seconds, o.trace)
	if o.reps > 0 {
		fmt.Fprintf(w, " reps=%d (development)", o.reps)
	}
	if o.smoke {
		fmt.Fprint(w, " smoke (development)")
	}
	fmt.Fprintln(w)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// result is one run of one workload.
type result struct {
	wl     *workload
	reps   []*rep
	traced []*rep // traced repetitions of a -trace 1 run
	layer  map[string]sample
	extra  rep // operations outside measured repetitions: calibration, layer replay
	trace  string
}

// runWorkload makes one run: a calibration repetition that fixes where
// garbage is collected, then the workload's repetitions, then, on a traced
// run, the layer replay and the trace file.
func runWorkload(wl *workload, o options) (*result, error) {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	res := &result{wl: wl}
	reps := wl.reps
	switch {
	case o.reps > 0:
		reps = o.reps
	case o.smoke:
		reps = 2
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		budget -= budget / 4 // the layer replay takes about 8 s of a 30 s run
	}
	start := time.Now()
	plan := &gcPlan{}
	var spans []span
	for i := -1; i < reps; i++ {
		// On a traced run every other repetition records spans.
		traced := o.trace && i >= 0 && i%2 == 1
		e := &env{seed: o.seed, smoke: o.smoke, rep: i + 1, tmp: o.out, gc: plan, corrupt: o.corrupt}
		if traced {
			e.tr = newTracer(i)
		}
		r, err := wl.run(e)
		if err != nil {
			return nil, fmt.Errorf("repetition %d: %w", i, err)
		}
		switch {
		case i < 0:
			// The calibration repetition reads the heap at every lap
			// boundary; its times are not the workload's.
			plan.calibrated = true
			res.extra.attempted += r.attempted
			res.extra.failed += r.failed
			res.extra.violations = r.violations
		case traced:
			// Only the last traced repetition's node state is replayed; a kept
			// one would count in the next repetition's live heap.
			if n := len(res.traced); n > 0 {
				res.traced[n-1].state = nil
			}
			res.traced = append(res.traced, r)
			spans = e.tr.spans // the file keeps the last traced repetition
		default:
			r.state = nil
			res.reps = append(res.reps, r)
		}
		if r.failed > 0 {
			break // the run is already incorrect; report it now
		}
		// The time cap; a traced run keeps as many traced repetitions as
		// untraced ones.
		done := len(res.reps) + len(res.traced)
		if done >= minReps && (!o.trace || done%2 == 0) && time.Since(start) > budget {
			break
		}
	}
	if !o.trace || !res.correct() {
		return res, nil
	}

	last := res.traced[len(res.traced)-1]
	e := &env{seed: o.seed, smoke: o.smoke, rep: 1000, tmp: o.out}
	res.layer = layerReplay(e, &res.extra, last.state)
	// The contract has every traced run report every per-layer metric. A
	// stage number of a layer this workload never enters is what it is: no
	// time spent, nothing counted, zero samples.
	for name, unit := range stageUnits {
		res.layer[name] = sample{unit: unit, note: "layer not entered"}
	}
	for k, v := range last.stage {
		res.layer[k] = v
	}
	un, tr := reduce(res.reps, epochMS), reduce(res.traced, epochMS)
	res.layer[epochMS] = sample{value: un, unit: e2eUnits[epochMS], n: len(res.reps), note: "untraced repetitions"}
	res.layer["trace.overhead_pct"] = sample{value: (tr/un - 1) * 100, unit: "%", n: len(res.reps) + len(res.traced)}
	res.layer["harness.rep_spread_pct"] = sample{value: spread(values(res.reps, epochMS)) * 100, unit: "%", n: len(res.reps)}
	var err error
	res.trace, err = writeTrace(o.out, wl.name, o.seed, spans)
	return res, err
}

// values lists the repetitions' own values of one end-to-end metric.
func values(reps []*rep, metric string) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = r.e2e[metric]
	}
	return out
}

// timingLaps names the laps each timing metric is made of.
var timingLaps = map[string]func(*rep) []float64{
	"setup_s":          func(r *rep) []float64 { return r.setupLaps },
	epochMS:            func(r *rep) []float64 { return r.windowLaps },
	"recommend_ms_p50": func(r *rep) []float64 { return r.recLaps },
}

// fastest reduces laps across repetitions to the fastest observation of
// each lap.
func fastest(reps []*rep, get func(*rep) []float64) ([]float64, bool) {
	laps := make([][]float64, len(reps))
	for i, r := range reps {
		laps[i] = get(r)
	}
	return lapMin(laps)
}

// reduce turns the repetitions into the reported value of one end-to-end
// metric: the three timings from the fastest observation of each lap and
// of each collection, the two exact metrics from their common value,
// allocation and heap from the median.
func reduce(reps []*rep, metric string) float64 {
	if get, ok := timingLaps[metric]; ok {
		laps, ok1 := fastest(reps, get)
		gcs, ok2 := fastest(reps, func(r *rep) []float64 { return r.gcs })
		switch {
		case !ok1 || !ok2:
			return math.NaN()
		case metric == "recommend_ms_p50":
			return median(laps) // no collection runs inside a timed call
		case metric == "setup_s":
			return (sum(laps) + charged(gcs, reps[0].charge, 0)) / 1e3
		}
		return (sum(laps) + charged(gcs, reps[0].charge, 1)) / float64(reps[0].epochs)
	}
	if metric == "wire_kb_per_epoch" || metric == "final_rmse" {
		return reps[0].e2e[metric]
	}
	return median(values(reps, metric))
}

// exactViolations checks that final_rmse is bit-equal across the
// repetitions of this run, and wire_kb_per_epoch equal within the slack
// attestation signatures need (none on the native workloads).
func (res *result) exactViolations() []string {
	var out []string
	for _, m := range []string{"setup_s", epochMS, "recommend_ms_p50"} {
		if _, ok := fastest(res.reps, timingLaps[m]); !ok {
			out = append(out, m+": repetitions disagree on the number of laps")
		}
	}
	if _, ok := fastest(res.reps, func(r *rep) []float64 { return r.gcs }); !ok {
		out = append(out, "repetitions disagree on the number of collections")
	}
	first := res.reps[0]
	for i, r := range res.reps {
		if a, b := first.e2e["final_rmse"], r.e2e["final_rmse"]; math.Float64bits(a) != math.Float64bits(b) || math.IsNaN(a) {
			out = append(out, fmt.Sprintf("final_rmse differs across repetitions: rep 0 = %v, rep %d = %v", a, i, b))
			break
		}
	}
	for i, r := range res.reps {
		if a, b := first.e2e["wire_kb_per_epoch"], r.e2e["wire_kb_per_epoch"]; !(math.Abs(a-b) <= first.wireSlackKB) {
			out = append(out, fmt.Sprintf("wire_kb_per_epoch differs across repetitions: rep 0 = %v, rep %d = %v (slack %g)",
				a, i, b, first.wireSlackKB))
			break
		}
	}
	return out
}

func (res *result) all() []*rep {
	all := append(append([]*rep(nil), res.reps...), res.traced...)
	return append(all, &res.extra)
}

func (res *result) violations() []string {
	var out []string
	for _, r := range res.all() {
		out = append(out, r.violations...)
	}
	if len(out) == 0 && res.complete() {
		out = res.exactViolations()
	}
	return out
}

func (res *result) correct() bool { return res.complete() && len(res.violations()) == 0 }

// complete reports whether every repetition measured every end-to-end
// metric and epoch_ms; one that failed early did not.
func (res *result) complete() bool {
	for _, r := range res.reps {
		if len(r.e2e) < len(e2eUnits) {
			return false
		}
	}
	return len(res.reps) > 0
}

func (res *result) line() resultLine {
	line := resultLine{Correct: res.correct(), Metrics: map[string]metricOut{}}
	for _, r := range res.all() {
		line.Attempted += r.attempted
		line.Failed += r.failed
	}
	if n := len(res.violations()); line.Failed < n {
		line.Failed = n // an equality check across repetitions failed
	}
	if res.layer != nil {
		for k, v := range res.layer {
			line.Metrics[k] = metricOut{v.value, v.unit}
		}
		return line
	}
	if res.complete() {
		for _, m := range e2eNames {
			line.Metrics[m] = metricOut{reduce(res.reps, m), e2eUnits[m]}
		}
	}
	return line
}

// print writes the human-readable report: every metric by name with its
// unit, the distribution over repetitions, and every violation.
func (res *result) print(w io.Writer) {
	fmt.Fprintf(w, "\n## %s: %d repetitions", res.wl.name, len(res.reps))
	if len(res.traced) > 0 {
		fmt.Fprintf(w, " + %d traced", len(res.traced))
	}
	fmt.Fprintln(w)
	if res.complete() {
		fmt.Fprintf(w, "%-22s %14s %-5s %14s %14s %14s %3s\n", "end-to-end", "value", "unit", "q1", "median", "q3", "n")
		row := func(m, tag string) {
			vs := values(res.reps, m)
			q1, q2, q3 := quartiles(vs)
			fmt.Fprintf(w, "%-22s %14.6g %-5s %14.6g %14.6g %14.6g %3d%s\n", m, reduce(res.reps, m), e2eUnits[m], q1, q2, q3, len(vs), tag)
		}
		for _, m := range e2eNames {
			row(m, "")
		}
		row(epochMS, "  per-layer")
		// A timing is a sum over laps; two commits whose lap counts differ
		// are not measured the same way.
		r := res.reps[0]
		var set, win float64
		for _, c := range r.charge {
			set, win = set+c[0], win+c[1]
		}
		fmt.Fprintf(w, "laps per repetition: setup_s %d, epoch_ms %d over %d epochs, recommend_ms_p50 %d; %d collections, %.2f charged to setup_s, %.2f to epoch_ms\n",
			len(r.setupLaps), len(r.windowLaps), r.epochs, len(r.recLaps), len(r.gcs), set, win)
	}
	if res.layer != nil {
		names := make([]string, 0, len(res.layer))
		for k := range res.layer {
			names = append(names, k)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "%-40s %14s %-6s %9s  %s\n", "per-layer", "value", "unit", "samples", "note")
		for _, k := range names {
			v := res.layer[k]
			fmt.Fprintf(w, "%-40s %14.6g %-6s %9d  %s\n", k, v.value, v.unit, v.n, v.note)
		}
		fmt.Fprintf(w, "trace: %s\n", res.trace)
	}
	line := res.line()
	fmt.Fprintf(w, "operations: %d attempted, %d failed\n", line.Attempted, line.Failed)
	for _, v := range res.violations() {
		fmt.Fprintf(w, "VIOLATION %s: %s\n", res.wl.name, v)
	}
}
