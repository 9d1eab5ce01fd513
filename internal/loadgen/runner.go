package loadgen

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rex/internal/faultnet"
	"rex/internal/metrics"
)

// Target is where generated events land. Run drives both deployment
// shapes through this seam: an in-process engine cluster (EngineCluster)
// and a live rexd deployment over HTTP (HTTPTarget).
type Target interface {
	// NumItems returns the smallest catalog size across the target's
	// nodes, or 0 if unknown (which skips Run's preflight).
	NumItems() (int, error)
	// Do dispatches one event and returns the HTTP status observed.
	// Safe for concurrent use.
	Do(ev Event) (int, error)
	// EndTick is called once after all of tick t's events completed —
	// the sim driver trains an epoch here, the live driver paces to the
	// tick boundary.
	EndTick(t int) error
	// Finish settles the cluster after the last tick and reports what
	// the verdict reads.
	Finish() (*Final, error)
	// Stop releases what the target holds; Run calls it on every path.
	Stop()
}

// Final is a target's account of a finished run.
type Final struct {
	// Mode is "sim" (in-process engines) or "live" (HTTP); Nodes is the
	// cluster size events were spread over.
	Mode  string
	Nodes int
	// Scenario names the fault schedule under the load ("" = fault-free).
	Scenario string
	// ScenarioEnabled is whether that schedule injects anything (a named
	// scenario such as "faultfree" may inject nothing by design).
	ScenarioEnabled bool
	// Server is the server-side metrics scrape merged across nodes, nil
	// if the target has none.
	Server *ServerMetrics
	// Ratings is the union of the nodes' final snapshot ratings, keyed
	// (user, item) by ackKey. The store dedups on that pair, so presence
	// is exactly the durable fact an ack promised.
	Ratings map[uint64]bool
	// Faults counts injected gossip faults, summed across nodes.
	Faults faultnet.Counts
}

func ackKey(user, item uint32) uint64 { return uint64(user)<<32 | uint64(item) }

// ServerMetrics is the merged server-side view scraped from the
// target's /metrics endpoints after a run.
type ServerMetrics struct {
	// Endpoints maps endpoint name to merged latency histograms and
	// status counts.
	Endpoints map[string]*EndpointStats
	// Stages maps pipeline stage (train, merge, seal, wire, ...) to
	// merged per-epoch duration histograms.
	Stages map[string]*metrics.HistSnapshot
}

// EndpointStats is one endpoint's merged server-side data.
type EndpointStats struct {
	Hist     *metrics.HistSnapshot
	Statuses map[int]uint64
}

// Options tunes a run.
type Options struct {
	// Workers is the dispatch concurrency per tick (default 4). The
	// event schedule is independent of it; only dispatch interleaving
	// changes.
	Workers int
	// Retries bounds how many times a retryable outcome (transport
	// error, 429, 503) is retried per event. 0 = no retries.
	Retries int
	// RetryBase is the exponential backoff base (default 50ms when
	// Retries > 0). The wait before retry k is RetryBase<<(k-1) plus
	// jitter.
	RetryBase time.Duration
	// RetryJitter bounds the per-attempt deterministic jitter added to
	// the backoff (default = RetryBase). Derived from the event hash —
	// see RetryBackoff.
	RetryJitter time.Duration
}

// LatencySummary is the report form of a histogram.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

func summarize(s *metrics.HistSnapshot) LatencySummary {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	if s == nil {
		return LatencySummary{}
	}
	return LatencySummary{
		Count:  s.Count,
		MeanMs: ms(s.Mean()),
		P50Ms:  ms(s.Quantile(0.50)),
		P95Ms:  ms(s.Quantile(0.95)),
		P99Ms:  ms(s.Quantile(0.99)),
	}
}

// EndpointReport is one endpoint's line in a report.
type EndpointReport struct {
	LatencySummary
	// Statuses counts responses by HTTP status code.
	Statuses map[int]uint64 `json:"statuses,omitempty"`
}

// Report is the outcome of one load run.
type Report struct {
	// Spec echoes the workload that ran.
	Spec *Spec `json:"spec"`
	// Mode is "sim" (in-process engines) or "live" (HTTP).
	Mode string `json:"mode"`
	// Nodes is the cluster size events were spread over.
	Nodes int `json:"nodes"`
	// Workers is the dispatch concurrency used.
	Workers int `json:"workers"`
	// WallSec is the run's wall-clock length.
	WallSec float64 `json:"wall_sec"`
	// Events is the number of events dispatched.
	Events uint64 `json:"events"`
	// EventsPerSec is Events/WallSec.
	EventsPerSec float64 `json:"events_per_sec"`
	// ScheduleDigest fingerprints the event schedule (hex): equal
	// digests = identical schedules, across worker counts and across
	// sim vs live replay. Retries and sheds don't perturb it — it
	// fingerprints generated events, not dispatch attempts.
	ScheduleDigest string `json:"schedule_digest"`
	// Outcomes counts events by how they ended: accepted first try,
	// retried-then-succeeded, shed (429/503, budget exhausted),
	// rejected (400), or failed (transport / hard server error).
	Outcomes Outcomes `json:"outcomes"`
	// Client holds client-observed request latency per endpoint
	// ("rate", "recommend"), including queueing and transport.
	Client map[string]EndpointReport `json:"client"`
	// Server holds the server-side view scraped from /metrics, merged
	// across nodes (handler time only).
	Server map[string]EndpointReport `json:"server,omitempty"`
	// Stages holds per-epoch pipeline stage percentiles (train, merge,
	// seal, wire, ...), merged across nodes.
	Stages map[string]LatencySummary `json:"stages,omitempty"`
	// Scenario names the fault schedule under the load ("" = fault-free).
	Scenario string `json:"scenario,omitempty"`
	// ScenarioEnabled is whether that schedule injects anything; only
	// then must the run have counted a fault.
	ScenarioEnabled bool `json:"scenario_enabled,omitempty"`
	// FaultFreeDigest is the schedule digest the generator derives a
	// priori — by construction the digest of a fault-free replay.
	FaultFreeDigest string `json:"fault_free_digest"`
	// Acked is the number of distinct (user, item) pairs acked 2xx on
	// /rate; Lost counts those missing from the final snapshots.
	Acked uint64 `json:"acked"`
	Lost  uint64 `json:"lost"`
	// Faults counts injected gossip faults, summed across nodes.
	Faults faultnet.Counts `json:"faults"`
}

// Verdict bounds. Transport failures should be rare on a local cluster
// even under chaos (faults hit gossip links, not the serving sockets), and
// an admission gate that turns away more than three quarters of a workload
// is over-shedding.
const (
	maxFailedFraction = 0.02
	maxShedFraction   = 0.75
)

// Run generates spec's schedule, drives it into the target tick by tick
// and judges the run. Dispatch latency is recorded client-side per
// endpoint, and so is the (user, item) pair of every write acked 2xx;
// after the last tick the target's Finish supplies the server-side
// metrics, the final snapshots and the injected fault counts. Run stops
// the target on every path. A run that completes returns its report with
// the verdict as the error; any other error comes with a nil report.
func Run(spec *Spec, tgt Target, opt Options) (*Report, error) {
	defer tgt.Stop()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = 4
	}
	retryBase := opt.RetryBase
	if opt.Retries > 0 && retryBase <= 0 {
		retryBase = 50 * time.Millisecond
	}
	retryJitter := opt.RetryJitter
	if opt.Retries > 0 && retryJitter <= 0 {
		retryJitter = retryBase
	}
	// Preflight: a spec whose item universe exceeds the target's catalog
	// would have every out-of-catalog write rejected 400 — fail fast
	// with the fix instead of silently losing a slice of the schedule.
	n, err := tgt.NumItems()
	if err != nil {
		return nil, fmt.Errorf("loadgen: preflight catalog check: %w", err)
	}
	if n > 0 && spec.Items > n {
		return nil, fmt.Errorf(
			"loadgen: spec item universe (%d items) exceeds the target catalog (%d items): "+
				"writes to items >= %d would be rejected 400 and silently lost — "+
				"regenerate the daemon dataset with a larger -scale, or shrink the spec's \"items\"",
			spec.Items, n, n)
	}
	gen := NewGen(spec)

	var rateHist, queryHist metrics.Hist
	statuses := map[Kind]map[int]uint64{Write: {}, Query: {}}
	acked := make(map[uint64]bool)
	var statusMu sync.Mutex
	var digest, events uint64
	var outAccepted, outRetriedOK, outShed, outRejected, outFailed, outRetries atomic.Uint64

	start := time.Now()
	var buf []Event
	for t := 0; t < spec.Ticks; t++ {
		buf = gen.EventsAt(t, buf[:0])
		for _, ev := range buf {
			digest ^= ev.Digest()
		}
		events += uint64(len(buf))

		// Fan the tick's events over the workers. Chunking by stride
		// keeps per-worker load balanced without any coordination.
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(buf); i += workers {
					ev := buf[i]
					// Bounded retry: histograms and status counts see
					// every attempt (they measure traffic), outcome
					// counters see each event once (they classify it).
					var status int
					var err error
					attempts := 0
					for {
						attempts++
						reqStart := time.Now()
						status, err = tgt.Do(ev)
						elapsed := time.Since(reqStart)
						statusMu.Lock()
						statuses[ev.Kind][status]++ // transport errors count as status 0
						statusMu.Unlock()
						if err == nil {
							if ev.Kind == Query {
								queryHist.Observe(elapsed)
							} else {
								rateHist.Observe(elapsed)
							}
						}
						if !Retryable(status, err) || attempts > opt.Retries {
							break
						}
						time.Sleep(RetryBackoff(ev, attempts, retryBase, retryJitter))
					}
					outRetries.Add(uint64(attempts - 1))
					switch {
					case err != nil:
						outFailed.Add(1)
					case status >= 200 && status < 300:
						if ev.Kind == Write {
							statusMu.Lock()
							acked[ackKey(ev.User, ev.Item)] = true
							statusMu.Unlock()
						}
						if attempts > 1 {
							outRetriedOK.Add(1)
						} else {
							outAccepted.Add(1)
						}
					case status == 429 || status == 503:
						outShed.Add(1)
					case status >= 400 && status < 500:
						outRejected.Add(1)
					default:
						outFailed.Add(1)
					}
				}
			}(w)
		}
		wg.Wait()
		if err := tgt.EndTick(t); err != nil {
			return nil, fmt.Errorf("loadgen: tick %d: %w", t, err)
		}
	}
	wall := time.Since(start).Seconds()

	fin, err := tgt.Finish()
	if err != nil {
		return nil, fmt.Errorf("loadgen: finishing: %w", err)
	}
	rep := &Report{
		Spec: spec, Mode: fin.Mode, Nodes: fin.Nodes, Workers: workers,
		WallSec: wall, Events: events,
		ScheduleDigest: fmt.Sprintf("%016x", digest),
		Outcomes: Outcomes{
			Accepted:  outAccepted.Load(),
			RetriedOK: outRetriedOK.Load(),
			Shed:      outShed.Load(),
			Rejected:  outRejected.Load(),
			Failed:    outFailed.Load(),
			Retries:   outRetries.Load(),
		},
		Client: map[string]EndpointReport{
			"rate":      {LatencySummary: summarize(rateHist.Snapshot()), Statuses: statuses[Write]},
			"recommend": {LatencySummary: summarize(queryHist.Snapshot()), Statuses: statuses[Query]},
		},
		Scenario:        fin.Scenario,
		ScenarioEnabled: fin.ScenarioEnabled,
		FaultFreeDigest: fmt.Sprintf("%016x", NewGen(spec).ScheduleDigest()),
		Acked:           uint64(len(acked)),
		Faults:          fin.Faults,
	}
	if wall > 0 {
		rep.EventsPerSec = float64(events) / wall
	}
	for key := range acked {
		if !fin.Ratings[key] {
			rep.Lost++
		}
	}
	if sm := fin.Server; sm != nil {
		rep.Server = make(map[string]EndpointReport, len(sm.Endpoints))
		for name, es := range sm.Endpoints {
			rep.Server[name] = EndpointReport{LatencySummary: summarize(es.Hist), Statuses: es.Statuses}
		}
		rep.Stages = make(map[string]LatencySummary, len(sm.Stages))
		for name, h := range sm.Stages {
			rep.Stages[name] = summarize(h)
		}
	}
	return rep, rep.verdict()
}

// verdict returns the first broken machine-independent invariant, nil when
// the run holds all of them: faults degrade delivery but never the
// workload, an ack is durable, every event ends in exactly one outcome,
// valid traffic is never rejected, the serving sockets stay up, shedding
// stays bounded, and an enabled scenario really fired.
func (r *Report) verdict() error {
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
	case r.ScenarioEnabled && injected == 0:
		return fmt.Errorf("scenario %q injected zero faults", r.Scenario)
	}
	return nil
}

// Fprint writes the run's header, the survival and fault summary, and
// throughput-independent latency: p50/p95/p99 per endpoint (client- and
// server-observed) and per pipeline stage.
func (r *Report) Fprint(out io.Writer) {
	s, o, c := r.Spec, r.Outcomes, r.Faults
	fmt.Fprintf(out, "workload %q x scenario %q: %d users, %d items, %d ticks, %s mode, %d nodes\n",
		s.Name, r.Scenario, s.Users, s.Items, s.Ticks, r.Mode, r.Nodes)
	fmt.Fprintf(out, "%d events in %s (%.0f events/s), schedule digest %s (fault-free %s)\n",
		r.Events, metrics.FormatSeconds(r.WallSec), r.EventsPerSec, r.ScheduleDigest, r.FaultFreeDigest)
	fmt.Fprintf(out, "outcomes: %d accepted, %d retried-ok, %d shed (%.1f%%), %d rejected, %d failed, %d retries\n",
		o.Accepted, o.RetriedOK, o.Shed, 100*o.ShedFraction(), o.Rejected, o.Failed, o.Retries)
	fmt.Fprintf(out, "acked ratings: %d, survived %d, lost %d\n", r.Acked, r.Acked-r.Lost, r.Lost)
	fmt.Fprintf(out, "faults: %d dropped (%d partition), %d delayed, %d dup, %d reordered, %d leaves, %d rejoins\n\n",
		c.Dropped, c.PartitionDrops, c.Delayed, c.Duplicated, c.Reordered, c.Leaves, c.Rejoins)

	percentiles := func(s LatencySummary) string {
		return fmt.Sprintf("%s / %s / %s",
			metrics.FormatSeconds(s.P50Ms/1e3),
			metrics.FormatSeconds(s.P95Ms/1e3),
			metrics.FormatSeconds(s.P99Ms/1e3))
	}
	lat := metrics.NewTable("Endpoint", "View", "Requests", "OK", "Rejected", "p50 / p95 / p99", "Mean")
	addRow := func(name, view string, er EndpointReport) {
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
		addRow(name, "client", r.Client[name])
		if sv, ok := r.Server[name]; ok {
			addRow(name, "server", sv)
		}
	}
	lat.Fprint(out)

	if len(r.Stages) == 0 {
		return
	}
	fmt.Fprintln(out)
	st := metrics.NewTable("Stage", "Epochs", "p50 / p95 / p99", "Mean")
	names := make([]string, 0, len(r.Stages))
	for name := range r.Stages {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		s := r.Stages[name]
		st.AddRow(name, fmt.Sprint(s.Count), percentiles(s), metrics.FormatSeconds(s.MeanMs/1e3))
	}
	st.Fprint(out)
}
