package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestLapMin pins the timing estimator: the fastest observation of each
// lap across repetitions, and a refusal when repetitions disagree on the
// number of laps.
func TestLapMin(t *testing.T) {
	got, ok := lapMin([][]float64{{9, 20, 7}, {12, 11, 7.5}, {10, 30, 6}})
	if want := []float64{9, 11, 6}; !ok || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("lapMin = %v %v, want %v", got, ok, want)
	}
	if _, ok := lapMin([][]float64{{1, 2}, {1}}); ok {
		t.Error("lapMin accepted repetitions with different lap counts")
	}
	if _, ok := lapMin(nil); ok {
		t.Error("lapMin accepted no repetitions")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

// TestTailPercentile pins the ten-samples-beyond rule: a tail percentile
// is reported only while at least ten samples lie beyond it.
func TestTailPercentile(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {5, 50}} {
		if p, _ := tailPercentile(ramp(c.n)); p != c.want {
			t.Errorf("%d samples: reports p%g, want p%g", c.n, p, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles = %v %v %v, want 1 2 3", q1, q2, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

// runBench runs the command in process and returns its exit code and the
// result lines it printed, one per workload.
func runBench(t *testing.T, args ...string) (int, []resultLine) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(append([]string{"-out", t.TempDir()}, args...), &stdout, &stderr)
	return code, resultLines(t, code, &stdout, &stderr)
}

func resultLines(t *testing.T, code int, stdout, stderr *bytes.Buffer) []resultLine {
	t.Helper()
	var lines []resultLine
	for _, l := range strings.Split(stdout.String(), "\n") {
		if strings.HasPrefix(l, "{") {
			var rl resultLine
			if err := json.Unmarshal([]byte(l), &rl); err != nil {
				t.Fatalf("result line %q: %v", l, err)
			}
			lines = append(lines, rl)
		}
	}
	if t.Failed() || code == 2 {
		t.Logf("stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
	return lines
}

func keys(m map[string]metricOut) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func readManifest(t *testing.T) *manifest {
	t.Helper()
	m, err := loadManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSmokeEndToEnd runs all four workloads at smoke size and checks that
// each reports exactly the end-to-end metrics BENCHMARK.json declares,
// with the declared units, and that every output was correct.
func TestSmokeEndToEnd(t *testing.T) {
	m := readManifest(t)
	code, lines := runBench(t, "-smoke")
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	if len(lines) != len(m.Workloads) || len(lines) != len(workloads) {
		t.Fatalf("%d result lines, manifest has %d workloads, the command %d", len(lines), len(m.Workloads), len(workloads))
	}
	for i, line := range lines {
		name := m.Workloads[i].Name
		if name != workloads[i].name {
			t.Errorf("workload %d: manifest says %q, the command %q", i, name, workloads[i].name)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", name, line.Correct, line.Attempted, line.Failed)
		}
		if len(line.Metrics) != len(m.EndToEnd) {
			t.Errorf("%s: emits %v", name, keys(line.Metrics))
		}
		for _, em := range m.EndToEnd {
			got, ok := line.Metrics[em.Name]
			if !ok || got.Unit != em.Unit || !(got.Value > 0) {
				t.Errorf("%s/%s: got %+v (present %v), manifest unit %q", name, em.Name, got, ok, em.Unit)
			}
		}
	}
}

// TestSchema checks the names: every per-layer metric a traced run emits
// is declared in BENCHMARK.json and the reverse, on every workload; names
// and units stay inside the contract's alphabet; the trace file is written.
func TestSchema(t *testing.T) {
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	declared := map[string]string{}
	for _, pl := range m.PerLayer {
		if !nameRE.MatchString(pl.Name) || !unitRE.MatchString(pl.Unit) {
			t.Errorf("per-layer %q unit %q: outside the contract's alphabet", pl.Name, pl.Unit)
		}
		if pl.Better != "lower" && pl.Better != "higher" {
			t.Errorf("per-layer %q: better = %q", pl.Name, pl.Better)
		}
		if _, dup := declared[pl.Name]; dup {
			t.Errorf("per-layer %q declared twice", pl.Name)
		}
		declared[pl.Name] = pl.Unit
	}
	for _, em := range m.EndToEnd {
		if !nameRE.MatchString(em.Name) || !unitRE.MatchString(em.Unit) || em.Bound <= 0 || em.Bound > 0.25 {
			t.Errorf("end-to-end %+v: outside the contract", em)
		}
		if _, dup := declared[em.Name]; dup {
			t.Errorf("name %q used twice", em.Name)
		}
		if e2eUnits[em.Name] != em.Unit {
			t.Errorf("end-to-end %q: manifest unit %q, the command's %q", em.Name, em.Unit, e2eUnits[em.Name])
		}
	}
	for _, w := range m.Workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: outside the contract", w.Name)
		}
		out := t.TempDir()
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-smoke", "-trace", "1", "-workload", w.Name, "-out", out}, &stdout, &stderr); code != 0 {
			t.Fatalf("%s traced: exit code %d\n%s\n%s", w.Name, code, stdout.String(), stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var line resultLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
			t.Fatalf("%s: last line: %v", w.Name, err)
		}
		for name, got := range line.Metrics {
			if unit, ok := declared[name]; !ok {
				t.Errorf("%s emits %q, which BENCHMARK.json does not declare", w.Name, name)
			} else if unit != got.Unit {
				t.Errorf("%s/%s: unit %q, manifest %q", w.Name, name, got.Unit, unit)
			}
			if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s/%s = %v", w.Name, name, got.Value)
			}
		}
		for name := range declared {
			if _, ok := line.Metrics[name]; !ok {
				t.Errorf("%s does not emit %q, which BENCHMARK.json declares", w.Name, name)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
		if entries, _ := os.ReadDir(out); len(entries) != 1 {
			t.Errorf("%s left %d entries in its output directory, want only the trace", w.Name, len(entries))
		}
	}
}

// TestCorruptAnswerFailsRun damages one /recommend answer on its way to
// the check; the run must report it and exit 1.
func TestCorruptAnswerFailsRun(t *testing.T) {
	for _, wl := range []string{"rex-secure", "serve-rw"} {
		var stdout, stderr bytes.Buffer
		code := execute(options{workload: wl, seed: 33, seconds: 30, smoke: true, corrupt: true, out: t.TempDir()}, &stdout, &stderr)
		lines := resultLines(t, code, &stdout, &stderr)
		if code != 1 {
			t.Errorf("%s: exit code %d, want 1", wl, code)
		}
		if len(lines) != 1 || lines[0].Correct || lines[0].Failed < 1 {
			t.Errorf("%s: result %+v, want correct=false and a failed operation", wl, lines)
		}
	}
}

// TestGCPlanReplay pins the collection schedule: a measured repetition
// collects at exactly the boundaries the calibration repetition chose, and
// a section is charged the share of a collection it allocated for.
func TestGCPlanReplay(t *testing.T) {
	lt := newLapTimer(&gcPlan{at: []int{2, 3}, charge: [][2]float64{{1, 0}, {0.25, 0.5}, {0, 1}}, calibrated: true})
	defer lt.stop()
	lt.mark()
	lt.skip() // boundary 2: collects; what ran since boundary 1 is in no lap
	if laps := lt.take(); len(laps) != 1 || len(lt.gcs) != 1 {
		t.Errorf("set-up: %d laps, %d collections, want 1 and 1", len(laps), len(lt.gcs))
	}
	lt.mark() // boundary 3: collects
	lt.mark()
	laps := lt.take()
	lt.collect() // the window's closing collection
	if len(laps) != 2 || len(lt.gcs) != 3 {
		t.Errorf("window: %d laps, %d collections, want 2 and 3", len(laps), len(lt.gcs))
	}
	gcs := []float64{8, 4, 2}
	if a, b := charged(gcs, lt.plan.charge, 0), charged(gcs, lt.plan.charge, 1); a != 9 || b != 4 {
		t.Errorf("charged %v to set-up and %v to the window, want 9 and 4", a, b)
	}
}

// TestCalibrationCharges runs a calibration against real allocation: a
// cycle's bytes are charged to the sections that allocated them.
func TestCalibrationCharges(t *testing.T) {
	plan := &gcPlan{}
	lt := newLapTimer(plan)
	defer lt.stop()
	var keep [][]byte
	alloc := func(mb int) {
		for i := 0; i < mb; i++ {
			keep = append(keep[:0], make([]byte, 1<<20))
		}
	}
	alloc(3) // set-up allocates 3 MB of the first cycle, due after 4,
	lt.mark()
	lt.take()
	alloc(2) // the window the other 2 MB of it
	lt.mark()
	alloc(1) // and 1 MB of the next, which the closing collection cuts short
	lt.mark()
	lt.take()
	lt.collect()
	if len(plan.at) != 1 || plan.at[0] != 2 || len(plan.charge) != 2 {
		t.Fatalf("plan %+v, want one collection at boundary 2 and a closing one", plan)
	}
	near := func(got, want float64) bool { return got > want-0.03 && got < want+0.03 }
	if c := plan.charge[0]; !near(c[0], 0.6) || !near(c[1], 0.4) {
		t.Errorf("first collection charged %v, want 0.6 to set-up and 0.4 to the window", c)
	}
	if c := plan.charge[1]; c[0] != 0 || !near(c[1], 0.25) {
		t.Errorf("closing collection charged %v, want a quarter to the window", c)
	}
}

// TestTracedRunNeedsTwoRepetitions: one repetition cannot be both the
// untraced and the traced one.
func TestTracedRunNeedsTwoRepetitions(t *testing.T) {
	if code, _ := runBench(t, "-smoke", "-trace", "1", "-reps", "1", "-workload", "serve-rw"); code != 2 {
		t.Errorf("exit code %d, want 2", code)
	}
}

func TestRefusesTunedRuntime(t *testing.T) {
	for _, v := range []string{"GOGC", "GOMEMLIMIT", "REX_VEC"} {
		t.Setenv(v, "1")
		if code, _ := runBench(t, "-smoke", "-workload", "serve-rw"); code != 2 {
			t.Errorf("%s set: exit code %d, want 2", v, code)
		}
		os.Unsetenv(v)
	}
}

// TestBindTCPSkipsBusyBlock occupies the first port of the first block;
// bindTCP must move on to another block and count the bind it lost.
func TestBindTCPSkipsBusyBlock(t *testing.T) {
	e := &env{seed: 7, rep: 3}
	const n = 3
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", blockStart(e, n, 0)))
	if err != nil {
		t.Skipf("cannot occupy the block: %v", err)
	}
	defer ln.Close()
	eps, attempted, err := bindTCP(e, n)
	if err != nil {
		t.Fatal(err)
	}
	defer closeAll(eps)
	if len(eps) != n || attempted != n+1 {
		t.Errorf("%d endpoints after %d binds, want %d after %d", len(eps), attempted, n, n+1)
	}
}
