// Package serve is the query side of a REX node daemon: an HTTP API over
// the engine's published snapshots, turning the training process into a
// recommendation service. It reads only immutable snapshots
// (runtime.Engine Publish mode), so queries never block — and never race —
// the training loop:
//
//	GET  /recommend?user=U&n=N[&model=knn]  ranked unseen items
//	POST /rate                              online rating ingestion
//	GET  /status                            control-plane counters
//	GET  /metrics                           per-endpoint latency histograms
//	GET  /peers                             live/lost neighbor sets
//	POST /drain                             graceful stop of training
//	GET  /snapshot                          serialized serving state
//
// Ranking goes through a cached candidate index (rank.Index) brought up to
// date once per snapshot epoch, not per query: a snapshot's ratings extend
// the last one's, so the index files only what the epoch appended
// (rank.Index.Next). A query then scores the rows the snapshot's model
// holds (rank.TopN's kernel). Results are bit-identical to running the
// uncached rank.TopN offline against the same snapshot — the contract the
// daemon's acceptance test pins. model=knn serves user-based KNN from
// the node's raw-data store through the same handler, the profile database
// that raw-data sharing uniquely provides (§II-B).
package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rex/internal/dataset"
	"rex/internal/knn"
	"rex/internal/metrics"
	"rex/internal/rank"
	"rex/internal/runtime"
)

// Node is the engine surface the server reads; *runtime.Engine implements
// it. All methods must be safe for concurrent use.
type Node interface {
	// Snapshot returns the latest published read-consistent snapshot (nil
	// until the first epoch completes).
	Snapshot() *runtime.Snapshot
	// Status returns the latest published control-plane view.
	Status() *runtime.Status
	// Ingest posts ratings into the training mailbox.
	Ingest(rs []dataset.Rating) int
	// Drain asks the training loop to stop after the current epoch.
	Drain()
}

// Config wires a Server to its node.
type Config struct {
	// Node is the serving data source. Required.
	Node Node
	// ID is this node's id, echoed in /status.
	ID int
	// NumItems bounds ranking candidates: items 0..NumItems-1.
	NumItems int
	// OnRate, when set, is called with accepted ratings BEFORE they are
	// acknowledged or ingested — the daemon's durability hook (WAL
	// append). An error rejects the request.
	OnRate func(rs []dataset.Rating) error
	// Drained, when set, is closed by the daemon once the training loop
	// has stopped; /drain waits on it.
	Drained <-chan struct{}
	// DrainErr, when set, is consulted after Drained closes: a non-nil
	// error means the drain did not complete cleanly (e.g. the final
	// snapshot failed to persist), and /drain reports 500 instead of
	// claiming a clean drain. Must be safe to call once Drained is closed.
	DrainErr func() error
	// Extra, when set, contributes additional fields to /status (e.g. the
	// daemon's generation counter and data directory).
	Extra func() map[string]any
	// Stages, when set, is surfaced under "stages" in /metrics — the
	// daemon records per-epoch pipeline stage durations into it (see
	// ObserveStages).
	Stages *metrics.StageSet
	// Admission configures overload protection on the serving edge
	// (token-bucket + bounded queue on /rate, staleness shed on
	// /recommend). The zero value disables every gate.
	Admission AdmissionConfig
	// Now overrides the admission clock; nil = time.Now. Tests only.
	Now func() time.Time
}

// Server serves the HTTP API.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	adm   *admission                // nil when no gate is configured
	stats map[string]*endpointStats // keyed by endpoint name, fixed at New

	// Per-snapshot caches, brought up to date when the served epoch
	// advances: the index is derived from the last one, the KNN
	// recommender rebuilt lazily — only queries asking for it pay the
	// profile-database construction.
	mu       sync.Mutex
	cacheEp  int
	index    *rank.Index
	knnRec   *knn.Recommender
	knnSnap  *runtime.Snapshot
	knnBuilt bool
}

// endpointStats accumulates one endpoint's request latencies and response
// status counts. The histogram path is lock-free; status counts take a
// short mutex (one map bump per request).
type endpointStats struct {
	hist     metrics.Hist
	mu       sync.Mutex
	statuses map[int]uint64
}

// statusWriter captures the response status code for accounting. Handlers
// that never call WriteHeader implicitly send 200.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// ObserveStages records one epoch's pipeline stage durations into set:
// the train, merge, share, seal and wire deltas of st's cumulative
// counters over prev, which it then advances to st. Call it on the
// protocol thread right after an epoch, the one place an engine's Stats
// may be read.
func ObserveStages(set *metrics.StageSet, prev, st *runtime.Stats) {
	set.Observe("train", st.Train-prev.Train)
	set.Observe("merge", st.Merge-prev.Merge)
	set.Observe("share", st.Share-prev.Share)
	set.Observe("seal", st.Seal-prev.Seal)
	set.Observe("wire", st.Wire-prev.Wire)
	*prev = *st
}

// New builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Node == nil {
		return nil, fmt.Errorf("serve: node is required")
	}
	if cfg.NumItems <= 0 {
		return nil, fmt.Errorf("serve: NumItems must be positive")
	}
	s := &Server{cfg: cfg, cacheEp: -1, mux: http.NewServeMux(), stats: make(map[string]*endpointStats)}
	if cfg.Admission.Enabled() {
		s.adm = newAdmission(cfg.Admission, cfg.Now)
	}
	s.mux.HandleFunc("GET /recommend", s.instrument("recommend", s.handleRecommend))
	s.mux.HandleFunc("POST /rate", s.instrument("rate", s.handleRate))
	s.mux.HandleFunc("GET /status", s.instrument("status", s.handleStatus))
	s.mux.HandleFunc("GET /peers", s.instrument("peers", s.handlePeers))
	s.mux.HandleFunc("POST /drain", s.instrument("drain", s.handleDrain))
	s.mux.HandleFunc("GET /snapshot", s.instrument("snapshot", s.handleSnapshot))
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s, nil
}

// instrument wraps a handler with request-latency and status accounting
// under the given endpoint name.
func (s *Server) instrument(name string, h http.HandlerFunc) http.HandlerFunc {
	es := &endpointStats{statuses: make(map[int]uint64)}
	s.stats[name] = es
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		es.hist.Observe(time.Since(start))
		es.mu.Lock()
		es.statuses[sw.code]++
		es.mu.Unlock()
	}
}

// Handler returns the http.Handler for the API.
func (s *Server) Handler() http.Handler { return s.mux }

// writeJSON encodes before it sends the status, so a value JSON cannot carry
// (a poisoned model's NaN score) is a 500 with an error body, not a cut-off 200.
func writeJSON(w http.ResponseWriter, status int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		status = http.StatusInternalServerError
		body.Reset()
		json.NewEncoder(&body).Encode(map[string]string{"error": "encoding response: " + err.Error()})
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body.Bytes()) // a client that hung up has no one left to tell
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// indexFor returns the candidate index for the snapshot, deriving it from
// the cached one if the snapshot advanced past the cached epoch.
func (s *Server) indexFor(snap *runtime.Snapshot) *rank.Index {
	s.mu.Lock()
	defer s.mu.Unlock()
	if snap.Epoch != s.cacheEp {
		s.index = s.index.Next(snap.Ratings, s.cfg.NumItems)
		s.cacheEp = snap.Epoch
		s.knnBuilt = false
		s.knnRec, s.knnSnap = nil, nil
	}
	return s.index
}

// knnFor returns the KNN recommender built over the snapshot's raw-data
// store, building it on first use per epoch.
func (s *Server) knnFor(snap *runtime.Snapshot) *knn.Recommender {
	s.indexFor(snap) // ensure cache generation matches
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.knnBuilt || s.knnSnap != snap {
		s.knnRec = knn.New(knn.DefaultConfig(), snap.Ratings)
		s.knnSnap = snap
		s.knnBuilt = true
	}
	return s.knnRec
}

// knnPredictor adapts internal/knn to rank.Predictor.
type knnPredictor struct{ r *knn.Recommender }

func (p knnPredictor) Predict(user, item uint32) float32 {
	return float32(p.r.Predict(user, item))
}

// RecommendItem is one /recommend list entry.
type RecommendItem struct {
	Item  uint32  `json:"item"`
	Score float32 `json:"score"`
}

// RecommendResponse is the /recommend payload.
type RecommendResponse struct {
	User  uint32          `json:"user"`
	Epoch int             `json:"epoch"`
	Model string          `json:"model"`
	Items []RecommendItem `json:"items"`
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	snap := s.cfg.Node.Snapshot()
	if snap == nil {
		writeErr(w, http.StatusServiceUnavailable, "no model snapshot yet; still training epoch 0")
		return
	}
	if shed, retry := s.adm.shedRecommend(snap.Epoch); shed {
		writeShed(w, http.StatusServiceUnavailable, ShedStale, retry,
			fmt.Sprintf("snapshot epoch %d is stale past the %s serving bound; training is not advancing here — retry later or on another replica",
				snap.Epoch, s.cfg.Admission.MaxSnapshotAge))
		return
	}
	q := r.URL.Query()
	user, err := strconv.ParseUint(q.Get("user"), 10, 32)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "user: %v", err)
		return
	}
	n := 10
	if v := q.Get("n"); v != "" {
		n, err = strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeErr(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
	}
	if n > s.cfg.NumItems {
		n = s.cfg.NumItems
	}
	ix := s.indexFor(snap)
	var pred rank.Predictor
	modelName := q.Get("model")
	switch modelName {
	case "", "mf", "model":
		pred = snap.Model
		modelName = "mf"
	case "knn":
		pred = knnPredictor{r: s.knnFor(snap)}
	default:
		writeErr(w, http.StatusBadRequest, "unknown model %q (want mf or knn)", modelName)
		return
	}
	items := ix.TopN(pred, uint32(user), n)
	resp := RecommendResponse{
		User: uint32(user), Epoch: snap.Epoch, Model: modelName,
		Items: make([]RecommendItem, len(items)),
	}
	for i, it := range items {
		resp.Items[i] = RecommendItem{Item: it.ID, Score: it.Score}
	}
	writeJSON(w, http.StatusOK, resp)
}

// Rating is the /rate request item.
type Rating struct {
	User  uint32  `json:"user"`
	Item  uint32  `json:"item"`
	Value float32 `json:"value"`
}

// maxEntityID mirrors the gossip wire's id cap (internal/mf): user and
// item ids at or above 2^24 cannot be encoded on the delta wire, so the
// serving edge must reject them up front — before the WAL append — or a
// single bad rating would poison every future gossip round.
const maxEntityID = 1 << 24

// validateRating is the full admission check for one /rate entry,
// applied before any durability or ingestion side effect. The value
// check is written as a negated inclusion so NaN (which fails every
// comparison) is rejected rather than slipping past a two-sided
// exclusion check; ±Inf falls outside the interval the same way.
func validateRating(i int, b Rating, numItems int) error {
	if !(b.Value >= 0.5 && b.Value <= 5) {
		return fmt.Errorf("rating %d: value %v outside [0.5, 5]", i, b.Value)
	}
	if b.User >= maxEntityID {
		return fmt.Errorf("rating %d: user %d above wire id cap %d", i, b.User, maxEntityID)
	}
	if int(b.Item) >= numItems {
		return fmt.Errorf("rating %d: item %d outside catalog of %d", i, b.Item, numItems)
	}
	return nil
}

func (s *Server) handleRate(w http.ResponseWriter, r *http.Request) {
	// Admission runs before the body is even parsed: an over-limit request
	// must cost the node as close to nothing as possible, and must never
	// reach the WAL. The release covers the full parse+WAL+ingest section,
	// so QueueDepth bounds real handler concurrency, not just the append.
	release, reason, retryAfter := s.adm.admitRate()
	if release == nil {
		writeShed(w, http.StatusTooManyRequests, reason, retryAfter,
			"rating shed by admission control ("+reason+"); nothing was written — safe to retry after the hint")
		return
	}
	defer release()
	dec := json.NewDecoder(r.Body)
	var batch []Rating
	// Accept a single object or an array.
	var raw json.RawMessage
	if err := dec.Decode(&raw); err != nil {
		writeErr(w, http.StatusBadRequest, "body: %v", err)
		return
	}
	if len(raw) > 0 && raw[0] == '[' {
		if err := json.Unmarshal(raw, &batch); err != nil {
			writeErr(w, http.StatusBadRequest, "body: %v", err)
			return
		}
	} else {
		var one Rating
		if err := json.Unmarshal(raw, &one); err != nil {
			writeErr(w, http.StatusBadRequest, "body: %v", err)
			return
		}
		batch = []Rating{one}
	}
	if len(batch) == 0 {
		writeJSON(w, http.StatusOK, map[string]int{"accepted": 0})
		return
	}
	rs := make([]dataset.Rating, len(batch))
	for i, b := range batch {
		if err := validateRating(i, b, s.cfg.NumItems); err != nil {
			writeErr(w, http.StatusBadRequest, "%v", err)
			return
		}
		rs[i] = dataset.Rating{User: b.User, Item: b.Item, Value: b.Value}
	}
	// Durability before acknowledgment: the WAL append happens first, so a
	// crash after the 200 can never lose an acknowledged rating.
	if s.cfg.OnRate != nil {
		if err := s.cfg.OnRate(rs); err != nil {
			writeErr(w, http.StatusInternalServerError, "persisting: %v", err)
			return
		}
	}
	s.adm.noteAccepted()
	writeJSON(w, http.StatusOK, map[string]int{"accepted": s.cfg.Node.Ingest(rs)})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := s.cfg.Node.Status()
	if st == nil {
		writeErr(w, http.StatusServiceUnavailable, "engine not started")
		return
	}
	rmse := st.RMSE
	if math.IsNaN(rmse) {
		rmse = -1 // JSON has no NaN
	}
	out := map[string]any{
		"id":            s.cfg.ID,
		"epoch":         st.Epoch,
		"rmse":          rmse,
		"draining":      st.Draining,
		"ingested":      st.Ingested,
		"bytes_in":      st.BytesIn,
		"bytes_out":     st.BytesOut,
		"bytes_on_wire": st.BytesOnWire,
		"peers_lost":    st.PeersLost,
		"rejoins":       st.Rejoins,
		"attested":      st.Attested,
		"num_items":     s.cfg.NumItems,
		// Delta wire counters. The saving clamps at zero: until gossip
		// flows, the bytes on the wire are attestation handshakes alone.
		"delta_refs":     st.DeltaRefs,
		"delta_explicit": st.DeltaExplicit,
		"resyncs":        st.Resyncs,
		"wire_saved_bytes": func() int64 {
			if v := st.WireRawBytes - st.BytesOnWire; v > 0 {
				return v
			}
			return 0
		}(),
	}
	if snap := s.cfg.Node.Snapshot(); snap != nil {
		out["snapshot_epoch"] = snap.Epoch
	}
	if s.cfg.Extra != nil {
		for k, v := range s.cfg.Extra() {
			out[k] = v
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// EndpointMetrics is one endpoint's entry in the /metrics payload.
// Percentiles are precomputed in milliseconds for human consumption; the
// raw histogram rides along so a scraper aggregating several nodes can
// merge buckets (metrics.HistSnapshot.Add) and get exact cluster-wide
// quantiles instead of averaging per-node percentiles.
type EndpointMetrics struct {
	Count    uint64                `json:"count"`
	Statuses map[int]uint64        `json:"statuses"`
	MeanMs   float64               `json:"mean_ms"`
	P50Ms    float64               `json:"p50_ms"`
	P95Ms    float64               `json:"p95_ms"`
	P99Ms    float64               `json:"p99_ms"`
	Hist     *metrics.HistSnapshot `json:"hist,omitempty"`
}

// MetricsResponse is the /metrics payload.
type MetricsResponse struct {
	Endpoints map[string]EndpointMetrics       `json:"endpoints"`
	Stages    map[string]*metrics.HistSnapshot `json:"stages,omitempty"`
	// Admission carries the overload-protection counters when any gate is
	// configured: accepted vs shed (by reason) and the in-flight queue's
	// high-water mark.
	Admission *AdmissionMetrics `json:"admission,omitempty"`
}

func endpointMetricsFrom(es *endpointStats) EndpointMetrics {
	snap := es.hist.Snapshot()
	es.mu.Lock()
	statuses := make(map[int]uint64, len(es.statuses))
	for code, n := range es.statuses {
		statuses[code] = n
	}
	es.mu.Unlock()
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	return EndpointMetrics{
		Count:    snap.Count,
		Statuses: statuses,
		MeanMs:   ms(snap.Mean()),
		P50Ms:    ms(snap.Quantile(0.50)),
		P95Ms:    ms(snap.Quantile(0.95)),
		P99Ms:    ms(snap.Quantile(0.99)),
		Hist:     snap,
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := MetricsResponse{Endpoints: make(map[string]EndpointMetrics, len(s.stats))}
	for name, es := range s.stats {
		resp.Endpoints[name] = endpointMetricsFrom(es)
	}
	if s.cfg.Stages != nil {
		resp.Stages = s.cfg.Stages.Snapshot()
	}
	resp.Admission = s.adm.metrics()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handlePeers(w http.ResponseWriter, r *http.Request) {
	st := s.cfg.Node.Status()
	if st == nil {
		writeErr(w, http.StatusServiceUnavailable, "engine not started")
		return
	}
	neighbors, lost := st.Neighbors, st.Lost
	if neighbors == nil {
		neighbors = []int{}
	}
	if lost == nil {
		lost = []int{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"neighbors": neighbors, "lost": lost})
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	s.cfg.Node.Drain()
	if s.cfg.Drained != nil {
		select {
		case <-s.cfg.Drained:
			if s.cfg.DrainErr != nil {
				if err := s.cfg.DrainErr(); err != nil {
					writeErr(w, http.StatusInternalServerError, "drain did not complete cleanly: %v", err)
					return
				}
			}
		case <-r.Context().Done():
			writeErr(w, http.StatusGatewayTimeout, "drain still in progress")
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"draining": true})
}

// SnapshotResponse is the /snapshot payload: enough to reconstruct the
// serving state offline (model bytes unmarshal into the model family the
// cluster runs; ratings decode with dataset.DecodeRatings) and verify
// /recommend bit for bit.
type SnapshotResponse struct {
	Epoch    int     `json:"epoch"`
	RMSE     float64 `json:"rmse"`
	NumItems int     `json:"num_items"`
	Model    []byte  `json:"model"`   // base64 in JSON
	Ratings  []byte  `json:"ratings"` // dataset.EncodeRatings, base64 in JSON
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	snap := s.cfg.Node.Snapshot()
	if snap == nil {
		writeErr(w, http.StatusServiceUnavailable, "no model snapshot yet")
		return
	}
	mb, err := snap.Model.Marshal()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "marshaling model: %v", err)
		return
	}
	rmse := snap.RMSE
	if math.IsNaN(rmse) {
		rmse = -1 // JSON has no NaN; same substitution as /status
	}
	writeJSON(w, http.StatusOK, SnapshotResponse{
		Epoch: snap.Epoch, RMSE: rmse, NumItems: s.cfg.NumItems,
		Model: mb, Ratings: dataset.EncodeRatings(snap.Ratings),
	})
}
