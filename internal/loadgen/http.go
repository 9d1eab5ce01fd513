package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"rex/internal/dataset"
	"rex/internal/faultnet"
	"rex/internal/serve"
)

// HTTPTarget replays a schedule against a live rexd deployment: the same
// events the sim driver feeds in-process go out as real HTTP requests,
// routed user→node exactly like the sim's shard routing, so the two
// modes are directly comparable. EndTick paces to the spec's tick_millis
// wall clock; Finish scrapes every node's /metrics, waits for the cluster
// to settle and reads its /status fault counters and /snapshot ratings.
type HTTPTarget struct {
	urls       []string
	client     *http.Client
	tickMillis int
	scenario   string
	enabled    bool // the scenario injects faults
	start      time.Time
}

// requestTimeout bounds each live request, connect through body, so one
// wedged node turns into a counted failure, not a stuck run.
const requestTimeout = 30 * time.Second

// NewHTTPTarget builds a live-cluster target from base URLs (e.g.
// "http://127.0.0.1:8800,http://127.0.0.1:8801"). tickMillis paces
// replay; 0 replays as fast as the cluster accepts. sc names the fault
// schedule the daemons were started with (nil = fault-free); the target
// injects nothing itself.
func NewHTTPTarget(urls []string, tickMillis int, sc *faultnet.Scenario) (*HTTPTarget, error) {
	if len(urls) == 0 {
		return nil, fmt.Errorf("loadgen: no target urls")
	}
	clean := make([]string, len(urls))
	for i, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("loadgen: empty target url at position %d", i)
		}
		if !strings.Contains(u, "://") {
			u = "http://" + u
		}
		clean[i] = u
	}
	h := &HTTPTarget{
		urls:       clean,
		client:     &http.Client{Timeout: requestTimeout},
		tickMillis: tickMillis,
		start:      time.Now(),
	}
	if sc != nil {
		h.scenario, h.enabled = sc.Name, sc.Enabled()
	}
	return h, nil
}

// nodeStatus is the part of a node's /status the runner reads.
type nodeStatus struct {
	NumItems      int             `json:"num_items"`
	SnapshotEpoch int             `json:"snapshot_epoch"`
	Faults        faultnet.Counts `json:"faults"`
}

// get decodes the JSON answer to GET base+path into v.
func (h *HTTPTarget) get(base, path string, v any) error {
	resp, err := h.client.Get(base + path)
	if err != nil {
		return fmt.Errorf("scraping %s%s: %w", base, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("scraping %s%s: status %d", base, path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("decoding %s%s: %w", base, path, err)
	}
	return nil
}

// status reads one node's /status.
func (h *HTTPTarget) status(base string) (nodeStatus, error) {
	var st nodeStatus
	return st, h.get(base, "/status", &st)
}

// NumItems implements Target: the smallest num_items across the
// cluster's /status responses — the binding constraint for routed
// writes. An unreachable node is an error (the run would fail anyway);
// a node that omits the field is skipped.
func (h *HTTPTarget) NumItems() (int, error) {
	min := 0
	for _, base := range h.urls {
		st, err := h.status(base)
		if err != nil {
			return 0, err
		}
		if st.NumItems > 0 && (min == 0 || st.NumItems < min) {
			min = st.NumItems
		}
	}
	return min, nil
}

// Do implements Target: one real HTTP request, routed by user.
func (h *HTTPTarget) Do(ev Event) (int, error) {
	base := h.urls[int(ev.User)%len(h.urls)]
	method, target, body := eventRequest(ev)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+target, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// EndTick implements Target: sleep until the next tick boundary, so the
// replayed schedule's arrival times track the spec's tick clock (a tick
// whose dispatch overran its budget starts the next one immediately).
func (h *HTTPTarget) EndTick(t int) error {
	if h.tickMillis <= 0 {
		return nil
	}
	deadline := h.start.Add(time.Duration(t+1) * time.Duration(h.tickMillis) * time.Millisecond)
	if d := time.Until(deadline); d > 0 {
		time.Sleep(d)
	}
	return nil
}

// Finish implements Target: scrape and merge every node's /metrics, wait
// until every node's published snapshot has advanced SettleEpochs past
// where the load left it (so mailbox-buffered ratings are
// snapshot-visible), then sum the /status fault counters and union the
// /snapshot ratings.
func (h *HTTPTarget) Finish() (*Final, error) {
	fin := &Final{
		Mode: "live", Nodes: len(h.urls), Scenario: h.scenario, ScenarioEnabled: h.enabled,
		Server: newServerMetrics(), Ratings: make(map[uint64]bool),
	}
	for _, base := range h.urls {
		var mr serve.MetricsResponse
		if err := h.get(base, "/metrics", &mr); err != nil {
			return nil, err
		}
		fin.Server.fold(&mr)
	}
	if err := h.settle(); err != nil {
		return nil, fmt.Errorf("settling: %w", err)
	}
	for _, base := range h.urls {
		st, err := h.status(base)
		if err != nil {
			return nil, err
		}
		f := &fin.Faults
		f.Dropped += st.Faults.Dropped
		f.Delayed += st.Faults.Delayed
		f.Duplicated += st.Faults.Duplicated
		f.Reordered += st.Faults.Reordered
		f.PartitionDrops += st.Faults.PartitionDrops
		f.Leaves += st.Faults.Leaves
		f.Rejoins += st.Faults.Rejoins
		var snap serve.SnapshotResponse
		if err := h.get(base, "/snapshot", &snap); err != nil {
			return nil, err
		}
		rs, _, err := dataset.DecodeRatings(snap.Ratings)
		if err != nil {
			return nil, fmt.Errorf("decoding %s/snapshot ratings: %w", base, err)
		}
		for _, r := range rs {
			fin.Ratings[ackKey(r.User, r.Item)] = true
		}
	}
	return fin, nil
}

// settle polls every node's /status until its snapshot epoch is
// SettleEpochs past the one it reported first. The deadline is generous:
// lossy scenarios stretch rounds via timeouts.
func (h *HTTPTarget) settle() error {
	base := make([]int, len(h.urls))
	for i, u := range h.urls {
		st, err := h.status(u)
		if err != nil {
			return err
		}
		base[i] = st.SnapshotEpoch
	}
	deadline := time.Now().Add(2 * time.Minute)
	for i, u := range h.urls {
		for {
			st, err := h.status(u)
			if err != nil {
				return err
			}
			if st.SnapshotEpoch >= base[i]+SettleEpochs {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s stuck at snapshot epoch %d (started %d, want +%d)",
					u, st.SnapshotEpoch, base[i], SettleEpochs)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}

// Stop implements Target: it closes the client's idle connections.
func (h *HTTPTarget) Stop() { h.client.CloseIdleConnections() }
