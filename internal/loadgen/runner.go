package loadgen

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"rex/internal/metrics"
)

// Target is where generated events land. One Runner implementation
// drives both deployment shapes through this seam: an in-process engine
// cluster (EngineCluster) and a live rexd deployment over HTTP
// (HTTPTarget).
type Target interface {
	// Do dispatches one event and returns the HTTP status observed.
	// Safe for concurrent use.
	Do(ev Event) (int, error)
	// EndTick is called once after all of tick t's events completed —
	// the sim driver trains an epoch here, the live driver paces to the
	// tick boundary.
	EndTick(t int) error
	// Finish ends the run and returns the server-side metrics scrape
	// (merged across nodes), nil if the target has none.
	Finish() (*ServerMetrics, error)
}

// CatalogReporter is an optional Target extension: targets that know
// their serving catalog size report it so Run can fail fast when the
// spec's item universe exceeds it. Without the preflight, every write to
// an out-of-catalog item comes back 400 and a live run silently loses a
// slice of its schedule (the PR 9 caveat).
type CatalogReporter interface {
	// NumItems returns the smallest catalog size across the target's
	// nodes, or 0 if unknown (which skips the preflight).
	NumItems() (int, error)
}

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
}

// Run generates spec's schedule and drives it into the target tick by
// tick. Dispatch latency is recorded client-side per endpoint; after the
// last tick the target's server-side metrics are folded into the report.
func Run(spec *Spec, tgt Target, mode string, nodes int, opt Options) (*Report, error) {
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
	if cr, ok := tgt.(CatalogReporter); ok {
		n, err := cr.NumItems()
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
	}
	gen := NewGen(spec)

	var rateHist, queryHist metrics.Hist
	statuses := map[Kind]map[int]uint64{Write: {}, Query: {}}
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

	rep := &Report{
		Spec: spec, Mode: mode, Nodes: nodes, Workers: workers,
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
	}
	if wall > 0 {
		rep.EventsPerSec = float64(events) / wall
	}

	sm, err := tgt.Finish()
	if err != nil {
		return nil, fmt.Errorf("loadgen: finishing: %w", err)
	}
	if sm != nil {
		rep.Server = make(map[string]EndpointReport, len(sm.Endpoints))
		for name, es := range sm.Endpoints {
			rep.Server[name] = EndpointReport{LatencySummary: summarize(es.Hist), Statuses: es.Statuses}
		}
		rep.Stages = make(map[string]LatencySummary, len(sm.Stages))
		for name, h := range sm.Stages {
			rep.Stages[name] = summarize(h)
		}
	}
	return rep, nil
}
