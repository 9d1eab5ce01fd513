package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"rex/internal/dataset"
	"rex/internal/faultnet"
	"rex/internal/loadgen"
	"rex/internal/metrics"
)

// This file runs declarative load workloads (internal/loadgen), optionally
// under a seeded fault schedule (internal/faultnet), and judges the run:
// the code that holds the data checks it, and the returned error is the
// verdict. Sim mode drives an in-process engine cluster; live mode replays
// the identical schedule against rexd HTTP endpoints.

// LoadConfig parameterizes one load run.
type LoadConfig struct {
	// Spec is the workload (already resolved from a name or file).
	Spec *loadgen.Spec
	// Scenario is the fault schedule injected under the load; nil runs
	// fault-free. The runner injects faults only in sim mode, where it
	// owns the engines; live daemons must have been started with the same
	// -scenario.
	Scenario *faultnet.Scenario
	// TargetURLs switches to live mode: rexd base URLs, one per node.
	// Empty = sim mode over an in-process cluster of Nodes engines.
	TargetURLs []string
	// Nodes is the sim-mode cluster size (default 2); ignored live.
	Nodes int
	// Workers is the dispatch concurrency (default 4).
	Workers int
	// Retries bounds per-event retries on 429/503/transport errors.
	Retries int
	// Timeout bounds each live request (0 = the target's 30s default).
	Timeout time.Duration
	// Out receives the human-readable tables; nil = discard.
	Out io.Writer
}

// Verdict bounds. Transport failures should be rare on a local cluster
// even under chaos (faults hit gossip links, not the serving sockets), and
// an admission gate that turns away more than three quarters of a workload
// is over-shedding.
const (
	maxFailedFraction = 0.02
	maxShedFraction   = 0.75
)

// LoadResult is one run's report plus the evidence its verdict is drawn
// from.
type LoadResult struct {
	*loadgen.Report
	// Scenario names the injected fault schedule ("" = fault-free).
	Scenario string
	// FaultFreeDigest is the schedule digest the generator derives a
	// priori — by construction the digest of a fault-free replay.
	FaultFreeDigest string
	// Acked is the number of distinct (user, item) pairs acked 2xx on
	// /rate; Lost counts those missing from the final snapshots.
	Acked, Lost uint64
	// Faults counts injected gossip faults, summed across nodes.
	Faults faultnet.Counts
}

// verdict returns the first broken machine-independent invariant, nil when
// the run holds all of them: faults degrade delivery but never the
// workload, an ack is durable, every event ends in exactly one outcome,
// valid traffic is never rejected, the serving sockets stay up, shedding
// stays bounded, and a requested scenario really fired.
func (r *LoadResult) verdict() error {
	o, c := r.Outcomes, r.Faults
	outcomes := o.Accepted + o.RetriedOK + o.Shed + o.Rejected + o.Failed
	injected := c.Dropped + c.Delayed + c.Duplicated + c.Reordered + c.PartitionDrops + c.Leaves + c.Rejoins
	switch {
	case r.ScheduleDigest != r.FaultFreeDigest:
		return fmt.Errorf("dispatched digest %s != fault-free %s: faults perturbed the workload",
			r.ScheduleDigest, r.FaultFreeDigest)
	case r.Lost > 0:
		return fmt.Errorf("accept-then-lose: %d of %d acked ratings missing from the final snapshots", r.Lost, r.Acked)
	case outcomes != r.Events:
		return fmt.Errorf("outcomes sum to %d, want %d events", outcomes, r.Events)
	case o.Rejected > 0:
		return fmt.Errorf("%d events rejected 400: the catalog preflight should make this impossible", o.Rejected)
	case float64(o.Failed) > maxFailedFraction*float64(r.Events):
		return fmt.Errorf("%d of %d events failed outright", o.Failed, r.Events)
	case o.ShedFraction() > maxShedFraction:
		return fmt.Errorf("shed fraction %.2f above the %.2f bound: admission is over-shedding",
			o.ShedFraction(), maxShedFraction)
	case r.Scenario != "" && injected == 0:
		return fmt.Errorf("scenario %q injected zero faults", r.Scenario)
	}
	return nil
}

// ackTracker decorates a Target and records the (user, item) pair of
// every write acked 2xx — including retried attempts — for the
// accept-then-lose check. The store dedups on (user, item), so pair
// presence in a final snapshot is exactly the durable fact an ack
// promised.
type ackTracker struct {
	inner loadgen.Target
	mu    sync.Mutex
	acked map[uint64]bool
}

func ackKey(user, item uint32) uint64 { return uint64(user)<<32 | uint64(item) }

func (a *ackTracker) Do(ev loadgen.Event) (int, error) {
	status, err := a.inner.Do(ev)
	if err == nil && ev.Kind == loadgen.Write && status >= 200 && status < 300 {
		a.mu.Lock()
		a.acked[ackKey(ev.User, ev.Item)] = true
		a.mu.Unlock()
	}
	return status, err
}

func (a *ackTracker) EndTick(t int) error { return a.inner.EndTick(t) }

func (a *ackTracker) Finish() (*loadgen.ServerMetrics, error) { return a.inner.Finish() }

// NumItems forwards the preflight to the wrapped target.
func (a *ackTracker) NumItems() (int, error) {
	if cr, ok := a.inner.(loadgen.CatalogReporter); ok {
		return cr.NumItems()
	}
	return 0, nil
}

// RunLoad executes the workload (under cfg.Scenario's faults, if any),
// checks every acked rating against the cluster's final snapshots, prints
// the summary and latency tables, and returns the verdict as its error.
func RunLoad(cfg LoadConfig) (*LoadResult, error) {
	out := cfg.Out
	if out == nil {
		out = io.Discard
	}
	if cfg.Spec == nil {
		return nil, fmt.Errorf("experiments: load spec is required")
	}
	nodes := cfg.Nodes
	if nodes <= 0 {
		nodes = 2
	}
	res := &LoadResult{
		// The a-priori digest: what a fault-free replay of this spec yields.
		FaultFreeDigest: fmt.Sprintf("%016x", loadgen.NewGen(cfg.Spec).ScheduleDigest()),
	}
	if cfg.Scenario != nil {
		res.Scenario = cfg.Scenario.Name
	}

	// Sim mode owns the engines and wraps their gossip endpoints with the
	// fault injector; cluster stays nil in live mode.
	var inner loadgen.Target
	var cluster *loadgen.EngineCluster
	faultLog := &faultnet.Log{}
	mode := "sim"
	if len(cfg.TargetURLs) > 0 {
		mode = "live"
		nodes = len(cfg.TargetURLs)
		t, err := loadgen.NewHTTPTarget(cfg.TargetURLs, cfg.Spec.TickMillis, cfg.Timeout)
		if err != nil {
			return nil, err
		}
		inner = t
	} else {
		var err error
		cluster, err = loadgen.NewEngineClusterOpts(cfg.Spec, nodes, loadgen.ClusterOptions{
			Scenario: cfg.Scenario, FaultLog: faultLog,
		})
		if err != nil {
			return nil, err
		}
		inner = cluster
	}

	fmt.Fprintf(out, "workload %q x scenario %q: %d users, %d items, %d ticks, %s mode, %d nodes\n",
		cfg.Spec.Name, res.Scenario, cfg.Spec.Users, cfg.Spec.Items, cfg.Spec.Ticks, mode, nodes)
	tracker := &ackTracker{inner: inner, acked: make(map[uint64]bool)}
	rep, err := loadgen.Run(cfg.Spec, tracker, mode, nodes, loadgen.Options{
		Workers: cfg.Workers, Retries: cfg.Retries,
	})
	if err != nil {
		return nil, err
	}
	res.Report = rep
	var final map[uint64]bool
	if cluster != nil {
		// Finish (inside loadgen.Run) settled and stopped the engines;
		// their published snapshots persist past Stop.
		final, res.Faults = cluster.FinalRatings(), faultLog.Counts()
	} else if final, res.Faults, err = scrapeLiveFinal(cfg.TargetURLs, cfg.Timeout); err != nil {
		return nil, err
	}
	res.Acked = uint64(len(tracker.acked))
	for key := range tracker.acked {
		if !final[key] {
			res.Lost++
		}
	}

	o, c := rep.Outcomes, res.Faults
	fmt.Fprintf(out, "%d events in %s (%.0f events/s), schedule digest %s (fault-free %s)\n",
		rep.Events, metrics.FormatSeconds(rep.WallSec), rep.EventsPerSec, rep.ScheduleDigest, res.FaultFreeDigest)
	fmt.Fprintf(out, "outcomes: %d accepted, %d retried-ok, %d shed (%.1f%%), %d rejected, %d failed, %d retries\n",
		o.Accepted, o.RetriedOK, o.Shed, 100*o.ShedFraction(), o.Rejected, o.Failed, o.Retries)
	fmt.Fprintf(out, "acked ratings: %d, survived %d, lost %d\n", res.Acked, res.Acked-res.Lost, res.Lost)
	fmt.Fprintf(out, "faults: %d dropped (%d partition), %d delayed, %d dup, %d reordered, %d leaves, %d rejoins\n\n",
		c.Dropped, c.PartitionDrops, c.Delayed, c.Duplicated, c.Reordered, c.Leaves, c.Rejoins)
	printLoadTables(out, rep)
	return res, res.verdict()
}

// printLoadTables renders throughput-independent latency: p50/p95/p99 per
// endpoint (client- and server-observed) and per pipeline stage.
func printLoadTables(out io.Writer, rep *loadgen.Report) {
	percentiles := func(s loadgen.LatencySummary) string {
		return fmt.Sprintf("%s / %s / %s",
			metrics.FormatSeconds(s.P50Ms/1e3),
			metrics.FormatSeconds(s.P95Ms/1e3),
			metrics.FormatSeconds(s.P99Ms/1e3))
	}
	lat := metrics.NewTable("Endpoint", "View", "Requests", "OK", "Rejected", "p50 / p95 / p99", "Mean")
	addRow := func(name, view string, er loadgen.EndpointReport) {
		var ok, rejected uint64
		for code, n := range er.Statuses {
			if code >= 200 && code < 300 {
				ok += n
			} else {
				rejected += n
			}
		}
		lat.AddRow(name, view, fmt.Sprint(er.Count), fmt.Sprint(ok), fmt.Sprint(rejected),
			percentiles(er.LatencySummary), metrics.FormatSeconds(er.MeanMs/1e3))
	}
	for _, name := range []string{"rate", "recommend"} {
		addRow(name, "client", rep.Client[name])
		if sv, ok := rep.Server[name]; ok {
			addRow(name, "server", sv)
		}
	}
	lat.Fprint(out)

	if len(rep.Stages) == 0 {
		return
	}
	fmt.Fprintln(out)
	st := metrics.NewTable("Stage", "Epochs", "p50 / p95 / p99", "Mean")
	names := make([]string, 0, len(rep.Stages))
	for name := range rep.Stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := rep.Stages[name]
		st.AddRow(name, fmt.Sprint(s.Count), percentiles(s), metrics.FormatSeconds(s.MeanMs/1e3))
	}
	st.Fprint(out)
}

// scrapeLiveFinal waits for every live node's published snapshot to
// advance loadgen.SettleEpochs past where the load left it (so
// mailbox-buffered ratings are snapshot-visible), then unions the
// cluster's /snapshot ratings and sums the /status fault counters.
func scrapeLiveFinal(urls []string, timeout time.Duration) (map[uint64]bool, faultnet.Counts, error) {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	client := &http.Client{Timeout: timeout}
	var faults faultnet.Counts

	type statusView struct {
		SnapshotEpoch int `json:"snapshot_epoch"`
		Faults        *struct {
			Dropped        int64 `json:"dropped"`
			Delayed        int64 `json:"delayed"`
			Duplicated     int64 `json:"duplicated"`
			Reordered      int64 `json:"reordered"`
			PartitionDrops int64 `json:"partition_drops"`
			Leaves         int64 `json:"leaves"`
			Rejoins        int64 `json:"rejoins"`
		} `json:"faults"`
	}
	getStatus := func(base string) (statusView, error) {
		var st statusView
		resp, err := client.Get(base + "/status")
		if err != nil {
			return st, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return st, fmt.Errorf("%s/status: %d", base, resp.StatusCode)
		}
		return st, json.NewDecoder(resp.Body).Decode(&st)
	}

	// Baseline epochs, then poll until each node advances by SettleEpochs.
	// The deadline is generous: lossy scenarios stretch rounds via timeouts.
	base := make([]int, len(urls))
	for i, u := range urls {
		st, err := getStatus(u)
		if err != nil {
			return nil, faults, fmt.Errorf("settling: %w", err)
		}
		base[i] = st.SnapshotEpoch
	}
	deadline := time.Now().Add(2 * time.Minute)
	for i, u := range urls {
		for {
			st, err := getStatus(u)
			if err != nil {
				return nil, faults, fmt.Errorf("settling: %w", err)
			}
			if st.SnapshotEpoch >= base[i]+loadgen.SettleEpochs {
				break
			}
			if time.Now().After(deadline) {
				return nil, faults, fmt.Errorf("settling: %s stuck at snapshot epoch %d (started %d, want +%d)",
					u, st.SnapshotEpoch, base[i], loadgen.SettleEpochs)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	final := make(map[uint64]bool)
	for _, u := range urls {
		st, err := getStatus(u)
		if err != nil {
			return nil, faults, err
		}
		if f := st.Faults; f != nil {
			faults.Dropped += f.Dropped
			faults.Delayed += f.Delayed
			faults.Duplicated += f.Duplicated
			faults.Reordered += f.Reordered
			faults.PartitionDrops += f.PartitionDrops
			faults.Leaves += f.Leaves
			faults.Rejoins += f.Rejoins
		}
		resp, err := client.Get(u + "/snapshot")
		if err != nil {
			return nil, faults, fmt.Errorf("scraping %s/snapshot: %w", u, err)
		}
		var snap struct {
			Ratings []byte `json:"ratings"`
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			return nil, faults, fmt.Errorf("decoding %s/snapshot: %w", u, err)
		}
		rs, _, err := dataset.DecodeRatings(snap.Ratings)
		if err != nil {
			return nil, faults, fmt.Errorf("decoding %s/snapshot ratings: %w", u, err)
		}
		for _, r := range rs {
			final[ackKey(r.User, r.Item)] = true
		}
	}
	return final, faults, nil
}
