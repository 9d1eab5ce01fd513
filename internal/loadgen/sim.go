package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/faultnet"
	"rex/internal/gossip"
	"rex/internal/metrics"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/runtime"
	"rex/internal/serve"
)

// EngineCluster is the sim-mode Target: a small in-process REX cluster —
// real runtime.Engines gossiping over the in-proc transport, each behind
// a real serve.Server — driven without any sockets. Events go through
// the same HTTP handlers a live deployment runs (writes land in the
// engines' Ingest mailboxes, queries read published snapshots), so a
// load run exercises the identical serving path; EndTick steps every
// engine one training epoch in lockstep, making one tick = one epoch.
type EngineCluster struct {
	spec     *Spec
	nodes    []*simNode
	scenario string
	enabled  bool // the scenario injects faults
	faults   faultnet.Log
	stopped  bool
}

// ClusterOptions extends the sim cluster for chaos-load runs.
type ClusterOptions struct {
	// Scenario, when non-nil and enabled, injects the faultnet schedule
	// into every engine's gossip endpoint — the same wrapper a live rexd
	// applies, so sim and live degrade under identical fault schedules.
	// The cluster collects the injected faults for Finish.
	Scenario *faultnet.Scenario
	// Admission configures the serving edge's overload gates on every
	// node. Sim ticks run unpaced (EndTick trains instead of sleeping),
	// so time-based rate limits would shed almost everything — leave the
	// zero value for throughput runs and set it only in tests that
	// exercise the gates.
	Admission serve.AdmissionConfig
}

// SettleEpochs is how many epochs past the load's end a cluster gets
// before its published snapshots are scraped, so mailbox-buffered ratings
// reach the snapshots the accept-then-lose check reads: the lockstep
// epochs EngineCluster.Finish runs, and the epochs HTTPTarget.Finish
// waits for.
const SettleEpochs = 2

// simNode is one engine plus its serving layer and protocol goroutine.
// Engine Step/Stop must run on one goroutine (the protocol thread); cmd
// serializes the cluster's requests onto it. Each node gets its own
// StageSet — exactly what its /metrics serves — so folding the per-node
// scrapes counts every epoch once.
type simNode struct {
	eng    *runtime.Engine
	srv    *serve.Server
	stages *metrics.StageSet
	prev   runtime.Stats
	cmd    chan simCmd
}

type simCmd struct {
	stop bool
	err  chan error
}

// simEpochSteps keeps sim epochs cheap: the load test measures the
// serving path under training interference, not convergence.
const simEpochSteps = 40

// NewEngineClusterOpts builds and starts an n-node cluster seeded with a
// deterministic synthetic shard per node (users striped across nodes,
// items within the spec's catalog), then runs one warm-up epoch so every
// node has a published snapshot before the first query arrives. opts
// carries the chaos-load settings; the zero value runs fault-free. On an
// error it stops whatever it started.
func NewEngineClusterOpts(spec *Spec, n int, opts ClusterOptions) (*EngineCluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if n < 2 {
		return nil, fmt.Errorf("loadgen: sim cluster needs at least 2 nodes (got %d)", n)
	}
	eps := runtime.NewChanNet(n)
	mcfg := mf.DefaultConfig()
	c := &EngineCluster{spec: spec}
	if opts.Scenario != nil {
		c.scenario, c.enabled = opts.Scenario.Name, opts.Scenario.Enabled()
	}
	for i := 0; i < n; i++ {
		// Ring neighbors keep gossip volume O(1) per node regardless of
		// cluster size; the ChanNet mesh carries any pair anyway.
		var neighbors []int
		if n == 2 {
			neighbors = []int{1 - i}
		} else {
			neighbors = []int{(i + 1) % n, (i - 1 + n) % n}
		}
		node := core.NewNode(core.Config{
			ID: i, Mode: core.DataSharing, Algo: gossip.DPSGD,
			StepsPerEpoch: simEpochSteps, SharePoints: 50, Seed: int64(spec.Seed),
		}, mf.New(mcfg), simRatings(spec, n, i), nil)
		rcfg := runtime.Config{
			Node: node, Endpoint: eps[i], Neighbors: neighbors,
			NewModel: func() model.Model { return mf.New(mcfg) },
			Publish:  true,
		}
		if c.enabled {
			opts.Scenario.ApplyRun(&rcfg, &c.faults)
		}
		eng, err := runtime.NewEngine(rcfg)
		if err != nil {
			return nil, err
		}
		stages := metrics.NewStageSet()
		srv, err := serve.New(serve.Config{
			Node: eng, ID: i, NumItems: spec.Items, Stages: stages,
			Admission: opts.Admission,
		})
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, &simNode{eng: eng, srv: srv, stages: stages, cmd: make(chan simCmd)})
	}
	// Protocol goroutines: Start, then serve step/stop commands (also
	// after a failed Start, so Stop reaches every node). Engines gossip
	// every epoch, so steps across nodes must be in flight together —
	// stepAll issues all n before waiting on any.
	startErrs := make(chan error, n)
	for _, sn := range c.nodes {
		go func(sn *simNode) {
			startErrs <- sn.eng.Start()
			for cmd := range sn.cmd {
				if cmd.stop {
					sn.eng.Stop()
					cmd.err <- nil
					return
				}
				_, err := sn.eng.Step()
				if err == nil {
					serve.ObserveStages(sn.stages, &sn.prev, sn.eng.Stats())
				}
				cmd.err <- err
			}
		}(sn)
	}
	var err error
	for range c.nodes {
		if e := <-startErrs; e != nil && err == nil {
			err = e
		}
	}
	if err == nil {
		err = c.stepAll() // warm-up epoch: publish snapshots
	}
	if err != nil {
		c.Stop()
		return nil, err
	}
	return c, nil
}

// simRatings is node i's deterministic synthetic training shard: users
// striped user%n == i (matching the Do routing, so online ratings land
// on the node already holding that user's profile), a few items each.
func simRatings(spec *Spec, n, i int) []dataset.Rating {
	const perUser = 3
	var rs []dataset.Rating
	// Cap the seed shard so huge user populations don't slow cluster
	// construction; online ingestion covers the rest of the id space.
	maxUsers := spec.Users
	if maxUsers > 2000 {
		maxUsers = 2000
	}
	for u := i; u < maxUsers; u += n {
		h := spec.Seed*0x9E3779B97F4A7C15 + uint64(u)
		for k := 0; k < perUser; k++ {
			h = mix64(h + uint64(k) + 1)
			rs = append(rs, dataset.Rating{
				User:  uint32(u),
				Item:  uint32(h % uint64(spec.Items)),
				Value: float32(h>>32%10+1) / 2,
			})
		}
	}
	return rs
}

// stepAll runs one epoch on every engine in lockstep.
func (c *EngineCluster) stepAll() error {
	errs := make([]chan error, len(c.nodes))
	for i, sn := range c.nodes {
		errs[i] = make(chan error, 1)
		sn.cmd <- simCmd{err: errs[i]}
	}
	var first error
	for _, ch := range errs {
		if err := <-ch; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// memWriter is a minimal in-memory http.ResponseWriter for in-proc
// handler dispatch.
type memWriter struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func newMemWriter() *memWriter { return &memWriter{hdr: make(http.Header), code: http.StatusOK} }

func (w *memWriter) Header() http.Header         { return w.hdr }
func (w *memWriter) Write(b []byte) (int, error) { return w.body.Write(b) }
func (w *memWriter) WriteHeader(code int)        { w.code = code }

// dispatch runs one request through a server's handler in-process.
func dispatch(srv *serve.Server, method, target string, body []byte) (*memWriter, error) {
	var r *http.Request
	var err error
	if body != nil {
		r, err = http.NewRequest(method, target, bytes.NewReader(body))
	} else {
		r, err = http.NewRequest(method, target, nil)
	}
	if err != nil {
		return nil, err
	}
	w := newMemWriter()
	srv.Handler().ServeHTTP(w, r)
	return w, nil
}

// eventRequest renders an event as its HTTP method, target and body —
// shared by the sim dispatch and the live HTTP target so both shapes
// issue byte-identical requests.
func eventRequest(ev Event) (method, target string, body []byte) {
	if ev.Kind == Query {
		return http.MethodGet, fmt.Sprintf("/recommend?user=%d&n=%d", ev.User, ev.N), nil
	}
	body, _ = json.Marshal(serve.Rating{User: ev.User, Item: ev.Item, Value: ev.Value})
	return http.MethodPost, "/rate", body
}

// Do implements Target: route by user to keep each user's online
// ratings on one node's profile, then run the real handler.
func (c *EngineCluster) Do(ev Event) (int, error) {
	sn := c.nodes[int(ev.User)%len(c.nodes)]
	method, target, body := eventRequest(ev)
	w, err := dispatch(sn.srv, method, target, body)
	if err != nil {
		return 0, err
	}
	return w.code, nil
}

// EndTick implements Target: one training epoch across the cluster.
func (c *EngineCluster) EndTick(int) error { return c.stepAll() }

// NumItems implements Target: the sim cluster serves exactly the spec's
// catalog, so the preflight always passes.
func (c *EngineCluster) NumItems() (int, error) { return c.spec.Items, nil }

// Finish implements Target: settle (so mailbox-buffered ratings reach
// published snapshots), scrape and merge every node's /metrics through
// the same handler a live deployment serves, and read the published
// snapshots and the fault log.
func (c *EngineCluster) Finish() (*Final, error) {
	for i := 0; i < SettleEpochs; i++ {
		if err := c.stepAll(); err != nil {
			return nil, err
		}
	}
	fin := &Final{
		Mode: "sim", Nodes: len(c.nodes), Scenario: c.scenario, ScenarioEnabled: c.enabled,
		Server: newServerMetrics(), Ratings: make(map[uint64]bool), Faults: c.faults.Counts(),
	}
	for _, sn := range c.nodes {
		w, err := dispatch(sn.srv, http.MethodGet, "/metrics", nil)
		if err != nil {
			return nil, err
		}
		if w.code != http.StatusOK {
			return nil, fmt.Errorf("loadgen: sim /metrics: status %d", w.code)
		}
		var resp serve.MetricsResponse
		if err := json.Unmarshal(w.body.Bytes(), &resp); err != nil {
			return nil, fmt.Errorf("loadgen: sim /metrics: %w", err)
		}
		fin.Server.fold(&resp)
		if snap := sn.eng.Snapshot(); snap != nil {
			for _, r := range snap.Ratings {
				fin.Ratings[ackKey(r.User, r.Item)] = true
			}
		}
	}
	return fin, nil
}

// Stop implements Target: it shuts the engines down (idempotent).
func (c *EngineCluster) Stop() {
	if c.stopped {
		return
	}
	c.stopped = true
	errs := make([]chan error, len(c.nodes))
	for i, sn := range c.nodes {
		errs[i] = make(chan error, 1)
		sn.cmd <- simCmd{stop: true, err: errs[i]}
	}
	for _, ch := range errs {
		<-ch
	}
}

func newServerMetrics() *ServerMetrics {
	return &ServerMetrics{
		Endpoints: make(map[string]*EndpointStats),
		Stages:    make(map[string]*metrics.HistSnapshot),
	}
}

// fold merges one node's /metrics payload into the cluster view: bucket
// histograms add exactly, so merged percentiles have full resolution.
func (m *ServerMetrics) fold(resp *serve.MetricsResponse) {
	for name, em := range resp.Endpoints {
		es := m.Endpoints[name]
		if es == nil {
			es = &EndpointStats{Hist: &metrics.HistSnapshot{}, Statuses: make(map[int]uint64)}
			m.Endpoints[name] = es
		}
		es.Hist.Add(em.Hist)
		for code, n := range em.Statuses {
			es.Statuses[code] += n
		}
	}
	for name, h := range resp.Stages {
		if m.Stages[name] == nil {
			m.Stages[name] = &metrics.HistSnapshot{}
		}
		m.Stages[name].Add(h)
	}
}
