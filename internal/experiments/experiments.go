// Package experiments reproduces every table and figure of the paper's
// evaluation (§IV). Each experiment has an ID matching the paper artifact
// (table1, fig1, fig2, table2, fig3, fig4, table3, fig5, fig6, fig7,
// table4), a harness that prints the same rows/series the paper reports,
// and two scales: the default scaled-down workload keeps `go test -bench`
// fast, while Full reproduces paper-scale parameters (610/15,000 users,
// 400 epochs).
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"rex/internal/faultnet"
)

// Params configure a harness invocation.
type Params struct {
	// Full selects paper-scale workloads; default is a scaled-down run
	// with identical structure.
	Full bool
	// Seed makes every experiment deterministic.
	Seed int64
	// Out receives the printed tables and series.
	Out io.Writer
	// Points bounds series rows printed per curve.
	Points int
	// Scenario, when set, injects the chaos schedule (rexbench -scenario)
	// into every simulated run: the paper artifacts re-run under message
	// loss, partitions and churn. Scenarios change results, so they are
	// part of the memo keys.
	Scenario *faultnet.Scenario
}

// scenarioTag is the memo-key component identifying the fault schedule —
// the full marshaled spec, so two scenarios sharing a name and seed but
// differing anywhere in the schedule never collide in the cache.
func (p Params) scenarioTag() string {
	if p.Scenario == nil {
		return ""
	}
	b, err := json.Marshal(p.Scenario)
	if err != nil {
		return fmt.Sprintf("|sc:%+v", *p.Scenario)
	}
	return "|sc:" + string(b)
}

func (p Params) defaults() Params {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Points == 0 {
		p.Points = 12
	}
	if p.Out == nil {
		p.Out = io.Discard
	}
	return p
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	ID    string
	Title string
	Run   func(p Params) error
}

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// ByID looks an experiment up by its artifact id.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All returns every experiment in artifact order.
func All() []Experiment {
	order := []string{"table1", "fig1", "fig2", "table2", "fig3", "fig4", "table3", "fig5", "fig6", "fig7", "table4"}
	out := make([]Experiment, 0, len(order))
	for _, id := range order {
		if e, ok := registry[id]; ok {
			out = append(out, e)
		}
	}
	// Any extras (ablations) appended alphabetically.
	var extra []string
	for id := range registry {
		found := false
		for _, o := range order {
			if o == id {
				found = true
				break
			}
		}
		if !found {
			extra = append(extra, id)
		}
	}
	sort.Strings(extra)
	for _, id := range extra {
		out = append(out, registry[id])
	}
	return out
}

// IDs returns all registered experiment ids, ordered as All.
func IDs() []string {
	all := All()
	ids := make([]string, len(all))
	for i, e := range all {
		ids[i] = e.ID
	}
	return ids
}

// memo caches expensive shared scenario runs within a process so that
// fig1, fig2 and table2 (which share runs) don't recompute each other's
// work when `rexbench -exp all` executes.
var memo sync.Map

func memoKey(parts ...interface{}) string { return fmt.Sprint(parts...) }

func memoized[T any](key string, f func() (T, error)) (T, error) {
	if v, ok := memo.Load(key); ok {
		return v.(T), nil
	}
	v, err := f()
	if err != nil {
		var zero T
		return zero, err
	}
	memo.Store(key, v)
	return v, nil
}
