package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/gossip"
	"rex/internal/knn"
	"rex/internal/metrics"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
	"rex/internal/rank"
	"rex/internal/runtime"
)

// fakeNode is a controllable serve.Node for handler-level tests.
type fakeNode struct {
	snap     *runtime.Snapshot
	status   *runtime.Status
	ingested []dataset.Rating
	drained  bool
}

func (f *fakeNode) Snapshot() *runtime.Snapshot { return f.snap }
func (f *fakeNode) Status() *runtime.Status     { return f.status }
func (f *fakeNode) Drain()                      { f.drained = true }
func (f *fakeNode) Ingest(rs []dataset.Rating) int {
	f.ingested = append(f.ingested, rs...)
	return len(rs)
}

func get(t *testing.T, h http.Handler, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	return do(t, h, httptest.NewRequest("GET", path, nil))
}

func post(t *testing.T, h http.Handler, path, body string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	return do(t, h, httptest.NewRequest("POST", path, strings.NewReader(body)))
}

func do(t *testing.T, h http.Handler, req *http.Request) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	var out map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("%s %s: non-JSON body %q", req.Method, req.URL, w.Body.String())
	}
	return w, out
}

func TestHandlersBeforeFirstSnapshot(t *testing.T) {
	n := &fakeNode{status: &runtime.Status{Epoch: 0}}
	s, err := New(Config{Node: n, NumItems: 10})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if w, _ := get(t, h, "/recommend?user=1"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/recommend before snapshot: %d, want 503", w.Code)
	}
	if w, _ := get(t, h, "/snapshot"); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("/snapshot before snapshot: %d, want 503", w.Code)
	}
	w, body := get(t, h, "/status")
	if w.Code != http.StatusOK {
		t.Fatalf("/status: %d", w.Code)
	}
	if _, has := body["snapshot_epoch"]; has {
		t.Fatal("status advertises a snapshot_epoch with no snapshot")
	}
	// Peers with nil slices must serialize as empty arrays, not null.
	w, _ = get(t, h, "/peers")
	if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"neighbors":[]`)) {
		t.Fatalf("/peers: %d %s", w.Code, w.Body.String())
	}
}

func TestRateValidationAndDurabilityOrder(t *testing.T) {
	n := &fakeNode{status: &runtime.Status{}}
	var logged []dataset.Rating
	s, err := New(Config{
		Node: n, NumItems: 100,
		OnRate: func(rs []dataset.Rating) error {
			// Order invariant: this batch must not be in the mailbox yet.
			if len(n.ingested) != len(logged) {
				t.Fatal("ratings ingested before the durability hook ran")
			}
			logged = append(logged, rs...)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()

	// Single object form.
	w, body := post(t, h, "/rate", `{"user":3,"item":7,"value":4.5}`)
	if w.Code != http.StatusOK || body["accepted"].(float64) != 1 {
		t.Fatalf("single rate: %d %v", w.Code, body)
	}
	// Array form.
	w, body = post(t, h, "/rate", `[{"user":3,"item":8,"value":3},{"user":4,"item":9,"value":1}]`)
	if w.Code != http.StatusOK || body["accepted"].(float64) != 2 {
		t.Fatalf("batch rate: %d %v", w.Code, body)
	}
	if len(logged) != 3 || len(n.ingested) != 3 {
		t.Fatalf("logged %d ingested %d, want 3/3", len(logged), len(n.ingested))
	}
	if logged[0] != (dataset.Rating{User: 3, Item: 7, Value: 4.5}) {
		t.Fatalf("logged %+v", logged[0])
	}

	// Out-of-range value and out-of-catalog item reject the whole batch.
	if w, _ := post(t, h, "/rate", `{"user":1,"item":2,"value":9}`); w.Code != http.StatusBadRequest {
		t.Fatalf("value 9 accepted: %d", w.Code)
	}
	if w, _ := post(t, h, "/rate", `{"user":1,"item":100,"value":3}`); w.Code != http.StatusBadRequest {
		t.Fatalf("item 100 of 100 accepted: %d", w.Code)
	}
	if w, _ := post(t, h, "/rate", `not json`); w.Code != http.StatusBadRequest {
		t.Fatalf("garbage accepted: %d", w.Code)
	}
	if len(n.ingested) != 3 {
		t.Fatalf("rejected requests leaked %d ratings in", len(n.ingested)-3)
	}

	// A failing durability hook must reject without ingesting.
	s2, _ := New(Config{Node: n, NumItems: 100, OnRate: func([]dataset.Rating) error {
		return fmt.Errorf("disk gone")
	}})
	if w, _ := post(t, s2.Handler(), "/rate", `{"user":1,"item":2,"value":3}`); w.Code != http.StatusInternalServerError {
		t.Fatalf("failed WAL append returned %d, want 500", w.Code)
	}
	if len(n.ingested) != 3 {
		t.Fatal("rating ingested despite failed durability hook")
	}
}

func TestDrainWaitsForDrained(t *testing.T) {
	n := &fakeNode{status: &runtime.Status{}}
	ch := make(chan struct{})
	close(ch)
	s, err := New(Config{Node: n, NumItems: 4, Drained: ch})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := post(t, s.Handler(), "/drain", "")
	if w.Code != http.StatusOK || !n.drained {
		t.Fatalf("/drain: %d drained=%v", w.Code, n.drained)
	}
}

// TestDrainReportsDirtyDrain pins that /drain does not claim a clean
// drain when the daemon's loop ended in error (the final snapshot was
// never persisted): the waiter gets a 500 carrying the loop error.
func TestDrainReportsDirtyDrain(t *testing.T) {
	n := &fakeNode{status: &runtime.Status{}}
	ch := make(chan struct{})
	close(ch)
	s, err := New(Config{Node: n, NumItems: 4, Drained: ch, DrainErr: func() error {
		return fmt.Errorf("final snapshot: disk gone")
	}})
	if err != nil {
		t.Fatal(err)
	}
	w, body := post(t, s.Handler(), "/drain", "")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("/drain after failed final persist: %d %v, want 500", w.Code, body)
	}
	if !strings.Contains(body["error"].(string), "disk gone") {
		t.Fatalf("error body %v does not carry the loop error", body)
	}

	// A clean drain (nil DrainErr result) still returns 200.
	s2, err := New(Config{Node: n, NumItems: 4, Drained: ch, DrainErr: func() error { return nil }})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := post(t, s2.Handler(), "/drain", ""); w.Code != http.StatusOK {
		t.Fatalf("clean /drain: %d, want 200", w.Code)
	}
}

// TestSnapshotNaNRMSESanitized: a node whose test partition is empty has a
// NaN RMSE, which json.Encoder refuses to emit — after the 200 header is
// already written. /snapshot must apply the same NaN→-1 substitution as
// /status so the body stays well-formed JSON.
func TestSnapshotNaNRMSESanitized(t *testing.T) {
	n := &fakeNode{
		status: &runtime.Status{},
		snap: &runtime.Snapshot{
			Epoch: 3, RMSE: math.NaN(), Model: mf.New(mf.DefaultConfig()),
			Ratings: []dataset.Rating{{User: 1, Item: 2, Value: 3}},
		},
	}
	s, err := New(Config{Node: n, NumItems: 4})
	if err != nil {
		t.Fatal(err)
	}
	w, body := get(t, s.Handler(), "/snapshot")
	if w.Code != http.StatusOK {
		t.Fatalf("/snapshot with NaN RMSE: %d %v", w.Code, body)
	}
	if body["rmse"].(float64) != -1 {
		t.Fatalf("rmse %v, want the -1 NaN substitute", body["rmse"])
	}
}

// nanModel is a poisoned model: every prediction is NaN.
type nanModel struct{ model.Model }

func (nanModel) Predict(_, _ uint32) float32 { return float32(math.NaN()) }

// TestRecommendNaNScoresAre500: JSON cannot carry a NaN, so a list with NaN
// scores must fail as a 500 with a JSON error — not as a 200 whose body
// stops where the encoder gave up — and be counted as one.
func TestRecommendNaNScoresAre500(t *testing.T) {
	n := &fakeNode{
		status: &runtime.Status{},
		snap:   &runtime.Snapshot{Epoch: 1, Model: nanModel{mf.New(mf.DefaultConfig())}},
	}
	s, err := New(Config{Node: n, NumItems: 8})
	if err != nil {
		t.Fatal(err)
	}
	w, body := get(t, s.Handler(), "/recommend?user=1&n=3")
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("/recommend over NaN scores: %d %v, want 500", w.Code, body)
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "encoding response") {
		t.Fatalf("error body %v does not name the encoding failure", body)
	}
	_, m := get(t, s.Handler(), "/metrics")
	statuses := m["endpoints"].(map[string]any)["recommend"].(map[string]any)["statuses"].(map[string]any)
	if statuses["500"] != float64(1) || statuses["200"] != nil {
		t.Fatalf("recommend statuses %v, want one 500 and no 200", statuses)
	}
}

// engineNode spins up a real single-node engine over a movielens shard and
// steps it twice so a published snapshot exists.
func engineNode(t *testing.T) (*runtime.Engine, int, func()) {
	t.Helper()
	spec := movielens.Latest().Scaled(0.05)
	spec.Seed = 33
	ds := movielens.Generate(spec)
	rng := rand.New(rand.NewSource(33))
	tr, te := ds.SplitPerUser(0.7, rng)
	mcfg := mf.DefaultConfig()
	node := core.NewNode(core.Config{
		ID: 0, Mode: core.DataSharing, Algo: gossip.DPSGD,
		StepsPerEpoch: 200, SharePoints: 30, Seed: 33,
	}, mf.New(mcfg), tr.Ratings, te.Ratings)
	eps := runtime.NewChanNet(1)
	e, err := runtime.NewEngine(runtime.Config{
		Node: node, Endpoint: eps[0],
		NewModel: func() model.Model { return mf.New(mcfg) },
		Publish:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	return e, ds.NumItems, func() { e.Stop(); eps[0].Close() }
}

// TestRecommendBitIdenticalToOfflineTopN is the serving-path contract: the
// JSON that comes out of /recommend must match the uncached offline
// rank.TopN over the engine's snapshot exactly — same ids, same float32
// scores (float32 survives a JSON round-trip losslessly).
func TestRecommendBitIdenticalToOfflineTopN(t *testing.T) {
	e, numItems, stop := engineNode(t)
	defer stop()
	s, err := New(Config{Node: e, NumItems: numItems})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	snap := e.Snapshot()

	users := map[uint32]bool{1 << 30: true} // plus a user nobody has seen
	for _, r := range snap.Ratings {
		if len(users) > 25 {
			break
		}
		users[r.User] = true
	}
	for u := range users {
		w, _ := get(t, h, fmt.Sprintf("/recommend?user=%d&n=10", u))
		if w.Code != http.StatusOK {
			t.Fatalf("user %d: %d %s", u, w.Code, w.Body.String())
		}
		var resp RecommendResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Epoch != snap.Epoch || resp.Model != "mf" {
			t.Fatalf("user %d: epoch %d model %q", u, resp.Epoch, resp.Model)
		}
		want := rank.TopN(snap.Model, u, numItems, 10, rank.SeenSet(snap.Ratings, u))
		if len(resp.Items) != len(want) {
			t.Fatalf("user %d: %d items served vs %d offline", u, len(resp.Items), len(want))
		}
		for i, it := range want {
			if resp.Items[i].Item != it.ID || resp.Items[i].Score != it.Score {
				t.Fatalf("user %d rank %d: served %+v != offline %+v", u, i, resp.Items[i], it)
			}
		}
	}

	// Bad inputs.
	if w, _ := get(t, h, "/recommend?user=notanumber"); w.Code != http.StatusBadRequest {
		t.Fatalf("bad user: %d", w.Code)
	}
	if w, _ := get(t, h, "/recommend?user=1&n=0"); w.Code != http.StatusBadRequest {
		t.Fatalf("n=0: %d", w.Code)
	}
	if w, _ := get(t, h, "/recommend?user=1&model=rf"); w.Code != http.StatusBadRequest {
		t.Fatalf("unknown model: %d", w.Code)
	}
}

// TestRecommendOnDerivedIndexMatchesOffline holds the serving contract
// across published snapshots, where the server derives each epoch's rank
// index from the last one's. Between epochs users rate their top item —
// known users and new ones — and, every third epoch, a rating the
// published snapshots hold takes a new value, which copies the store. While the
// engine steps, readers keep querying: every answer served from a
// snapshot must equal the offline rank.TopN over that snapshot, and a full
// sort of per-item Predict over the catalog (predictTopN), which shares no
// scoring kernel with either.
func TestRecommendOnDerivedIndexMatchesOffline(t *testing.T) {
	e, numItems, stop := engineNode(t)
	defer stop()
	s, err := New(Config{Node: e, NumItems: numItems})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var users []uint32
	for _, r := range e.Snapshot().Ratings {
		if len(users) < 8 && !slices.Contains(users, r.User) {
			users = append(users, r.User)
		}
	}
	users = append(users, 1<<20, 1<<20+1) // ingested below
	check := func(u uint32) error {
		snap := e.Snapshot()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/recommend?user=%d&n=10", u), nil))
		var resp RecommendResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
			return fmt.Errorf("user %d: %d %s", u, rec.Code, rec.Body.String())
		}
		if resp.Epoch != snap.Epoch {
			return nil // a newer snapshot was published between the two reads
		}
		seen := rank.SeenSet(snap.Ratings, u)
		for oracle, want := range map[string][]rank.Item{
			"rank.TopN":   rank.TopN(snap.Model, u, numItems, 10, seen),
			"predictTopN": predictTopN(snap.Model, u, numItems, 10, seen),
		} {
			if len(resp.Items) != len(want) {
				return fmt.Errorf("epoch %d user %d: served %v, %s %v", snap.Epoch, u, resp.Items, oracle, want)
			}
			for i, it := range want {
				if resp.Items[i].Item != it.ID || math.Float32bits(resp.Items[i].Score) != math.Float32bits(it.Score) {
					return fmt.Errorf("epoch %d user %d: served %v, %s %v", snap.Epoch, u, resp.Items, oracle, want)
				}
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(5))
	for ep := 0; ep < 9; ep++ {
		done := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					if err := check(users[i%len(users)]); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		// Users rate what they were recommended, so the next lists
		// change only if the index files the new ratings.
		snap := e.Snapshot()
		var in []dataset.Rating
		for k := 0; k < 6; k++ {
			u := users[rng.Intn(len(users))]
			top := rank.TopN(snap.Model, u, numItems, 1, rank.SeenSet(snap.Ratings, u))
			in = append(in, dataset.Rating{User: u, Item: top[0].ID, Value: 4})
		}
		if ep%3 == 2 {
			held := snap.Ratings[rng.Intn(len(snap.Ratings))]
			held.Value = 5.5 - held.Value
			in = append(in, held)
		}
		e.Ingest(in)
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
		close(done)
		wg.Wait()
		for _, u := range users {
			if err := check(u); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// predictTopN is the /recommend oracle that shares no kernel with the
// server: every catalog item the user has not rated, scored one Predict
// call at a time and fully sorted in rank's order (higher score first, NaN
// last, ties by ascending id).
func predictTopN(m model.Model, user uint32, numItems, n int, seen map[uint32]bool) []rank.Item {
	var items []rank.Item
	for i := 0; i < numItems; i++ {
		if !seen[uint32(i)] {
			items = append(items, rank.Item{ID: uint32(i), Score: m.Predict(user, uint32(i))})
		}
	}
	// cmp.Compare orders NaN below every number, so descending puts it
	// last; equal scores keep their ascending ids in the stable sort.
	slices.SortStableFunc(items, func(a, b rank.Item) int { return cmp.Compare(b.Score, a.Score) })
	return items[:min(n, len(items))]
}

// TestRecommendKNNFromRawStore is the raw-data-sharing payoff the paper
// highlights (§II-B): because REX nodes hold actual profiles, the same
// /recommend handler can serve a KNN recommender built from the node's
// raw-data store — no retraining, just a different predictor over the same
// snapshot and candidate index.
func TestRecommendKNNFromRawStore(t *testing.T) {
	e, numItems, stop := engineNode(t)
	defer stop()
	s, err := New(Config{Node: e, NumItems: numItems})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	snap := e.Snapshot()
	rec := knn.New(knn.DefaultConfig(), snap.Ratings)
	ix := rank.NewIndex(snap.Ratings, numItems)

	users := map[uint32]bool{}
	for _, r := range snap.Ratings {
		if len(users) > 10 {
			break
		}
		users[r.User] = true
	}
	differs := false
	for u := range users {
		w, _ := get(t, h, fmt.Sprintf("/recommend?user=%d&n=8&model=knn", u))
		if w.Code != http.StatusOK {
			t.Fatalf("user %d: %d %s", u, w.Code, w.Body.String())
		}
		var resp RecommendResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Model != "knn" {
			t.Fatalf("served model %q", resp.Model)
		}
		want := ix.TopN(knnPredictor{r: rec}, u, 8)
		for i, it := range want {
			if resp.Items[i].Item != it.ID || resp.Items[i].Score != it.Score {
				t.Fatalf("user %d rank %d: served %+v != offline knn %+v", u, i, resp.Items[i], it)
			}
		}
		// MF and KNN should not be the same ranking for every user; verify
		// the handler actually switches predictors.
		wmf, _ := get(t, h, fmt.Sprintf("/recommend?user=%d&n=8", u))
		var mfResp RecommendResponse
		if err := json.Unmarshal(wmf.Body.Bytes(), &mfResp); err != nil {
			t.Fatal(err)
		}
		for i := range resp.Items {
			if i < len(mfResp.Items) && resp.Items[i] != mfResp.Items[i] {
				differs = true
			}
		}
	}
	if !differs {
		t.Fatal("knn and mf rankings identical for all sampled users — predictor switch suspect")
	}
}

// TestSnapshotEndpointRoundtrip pins that /snapshot carries enough to
// reconstruct the serving state offline: model bytes unmarshal into an
// equal predictor and the ratings block decodes to the snapshot store.
func TestSnapshotEndpointRoundtrip(t *testing.T) {
	e, numItems, stop := engineNode(t)
	defer stop()
	s, err := New(Config{Node: e, NumItems: numItems})
	if err != nil {
		t.Fatal(err)
	}
	w, _ := get(t, s.Handler(), "/snapshot")
	if w.Code != http.StatusOK {
		t.Fatalf("/snapshot: %d", w.Code)
	}
	var resp SnapshotResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	if resp.Epoch != snap.Epoch || resp.NumItems != numItems {
		t.Fatalf("snapshot meta %d/%d, want %d/%d", resp.Epoch, resp.NumItems, snap.Epoch, numItems)
	}
	wantModel, err := snap.Model.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp.Model, wantModel) {
		t.Fatal("model bytes differ through /snapshot")
	}
	rs, _, err := dataset.DecodeRatings(resp.Ratings)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(snap.Ratings) || rs[0] != snap.Ratings[0] {
		t.Fatalf("ratings: %d decoded vs %d in snapshot", len(rs), len(snap.Ratings))
	}

	// The decoded model must predict bit-identically to the live snapshot.
	m := mf.New(mf.DefaultConfig())
	if err := m.Unmarshal(resp.Model); err != nil {
		t.Fatal(err)
	}
	for u := uint32(0); u < 20; u++ {
		if m.Predict(u, u%7) != snap.Model.Predict(u, u%7) {
			t.Fatalf("user %d: reconstructed model predicts differently", u)
		}
	}
}

// TestStatusWireCounters: the delta wire counters surface in /status, and
// the reported saving is raw-equivalent minus bytes on the wire, clamped at
// zero (a node whose wire has carried only handshakes reports no negative
// saving).
func TestStatusWireCounters(t *testing.T) {
	n := &fakeNode{status: &runtime.Status{
		DeltaRefs: 7, DeltaExplicit: 3, Resyncs: 2,
		WireRawBytes: 1000, BytesOnWire: 400,
	}}
	s, err := New(Config{Node: n, NumItems: 10})
	if err != nil {
		t.Fatal(err)
	}
	_, body := get(t, s.Handler(), "/status")
	for k, want := range map[string]float64{
		"delta_refs": 7, "delta_explicit": 3, "resyncs": 2, "wire_saved_bytes": 600,
	} {
		if got, _ := body[k].(float64); got != want {
			t.Fatalf("status %q = %v, want %v", k, body[k], want)
		}
	}

	// Handshakes only: nothing raw-equivalent yet, the saving clamps at zero.
	n.status = &runtime.Status{BytesOnWire: 400}
	_, body = get(t, s.Handler(), "/status")
	if got, _ := body["wire_saved_bytes"].(float64); got != 0 {
		t.Fatalf("handshake-only saving = %v, want 0", got)
	}
}

// TestRateRejectionTable walks every /rate admission failure: each must
// return 400 with a structured error body, and — the durability contract —
// neither the WAL hook nor the ingest mailbox may see any part of the
// batch.
func TestRateRejectionTable(t *testing.T) {
	for _, tc := range []struct {
		name, body string
	}{
		{"value-below-range", `{"user":1,"item":2,"value":0.4}`},
		{"value-above-range", `{"user":1,"item":2,"value":5.5}`},
		{"value-negative", `{"user":1,"item":2,"value":-3}`},
		// 1e39 overflows float32 at decode time; json surfaces it as an
		// unmarshal error, which must also land as a 400.
		{"value-overflows-float32", `{"user":1,"item":2,"value":1e39}`},
		{"value-wrong-type", `{"user":1,"item":2,"value":"four"}`},
		{"item-outside-catalog", `{"user":1,"item":100,"value":3}`},
		{"user-at-wire-cap", `{"user":16777216,"item":2,"value":3}`},
		{"user-above-wire-cap", `{"user":4294967295,"item":2,"value":3}`},
		{"bad-entry-in-batch", `[{"user":1,"item":2,"value":3},{"user":16777216,"item":2,"value":3}]`},
		{"garbage", `not json`},
		{"user-negative", `{"user":-1,"item":2,"value":3}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := &fakeNode{status: &runtime.Status{}}
			walCalled := false
			s, err := New(Config{Node: n, NumItems: 100, OnRate: func([]dataset.Rating) error {
				walCalled = true
				return nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			w, body := post(t, s.Handler(), "/rate", tc.body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("%s: code %d, want 400 (body %v)", tc.name, w.Code, body)
			}
			if _, ok := body["error"].(string); !ok {
				t.Fatalf("%s: no structured error in %v", tc.name, body)
			}
			if walCalled {
				t.Fatalf("%s: WAL hook ran for a rejected batch", tc.name)
			}
			if len(n.ingested) != 0 {
				t.Fatalf("%s: rejected batch leaked %d ratings into the mailbox", tc.name, len(n.ingested))
			}
		})
	}

	// The largest representable ids below the caps still pass.
	n := &fakeNode{status: &runtime.Status{}}
	s, _ := New(Config{Node: n, NumItems: 100})
	if w, body := post(t, s.Handler(), "/rate", `{"user":16777215,"item":99,"value":5}`); w.Code != http.StatusOK {
		t.Fatalf("max in-range rating rejected: %d %v", w.Code, body)
	}
	if len(n.ingested) != 1 {
		t.Fatalf("in-range rating not ingested (%d)", len(n.ingested))
	}
}

// TestValidateRatingNonFinite exercises the non-finite values JSON cannot
// carry (so the HTTP table above cannot reach them): NaN fails the negated
// range check by failing every comparison, and both infinities fall
// outside the interval.
func TestValidateRatingNonFinite(t *testing.T) {
	for _, v := range []float32{
		float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	} {
		if err := validateRating(0, Rating{User: 1, Item: 2, Value: v}, 10); err == nil {
			t.Fatalf("value %v admitted", v)
		}
	}
	if err := validateRating(0, Rating{User: 1, Item: 2, Value: 3}, 10); err != nil {
		t.Fatalf("valid rating rejected: %v", err)
	}
	if err := validateRating(0, Rating{User: maxEntityID, Item: 2, Value: 3}, 10); err == nil {
		t.Fatal("user at wire cap admitted")
	}
	if err := validateRating(0, Rating{User: maxEntityID - 1, Item: 2, Value: 3}, 10); err != nil {
		t.Fatalf("user below wire cap rejected: %v", err)
	}
}

// TestRecommendRejectionTable: malformed queries get structured 400s, not
// empty bodies or 500s.
func TestRecommendRejectionTable(t *testing.T) {
	n := &fakeNode{
		status: &runtime.Status{},
		snap: &runtime.Snapshot{
			Epoch: 1, Model: mf.New(mf.DefaultConfig()),
			Ratings: []dataset.Rating{{User: 1, Item: 2, Value: 3}},
		},
	}
	s, err := New(Config{Node: n, NumItems: 10})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for _, tc := range []struct{ name, query string }{
		{"user-missing", "/recommend"},
		{"user-not-integer", "/recommend?user=abc"},
		{"user-negative", "/recommend?user=-1"},
		{"user-fractional", "/recommend?user=1.5"},
		{"user-overflows-uint32", "/recommend?user=4294967296"},
		{"n-zero", "/recommend?user=1&n=0"},
		{"n-negative", "/recommend?user=1&n=-3"},
		{"n-not-integer", "/recommend?user=1&n=ten"},
		{"model-unknown", "/recommend?user=1&model=svd"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, body := get(t, h, tc.query)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("%s: code %d, want 400 (body %v)", tc.name, w.Code, body)
			}
			if msg, ok := body["error"].(string); !ok || msg == "" {
				t.Fatalf("%s: no structured error in %v", tc.name, body)
			}
		})
	}
	if w, body := get(t, h, "/recommend?user=1&n=3"); w.Code != http.StatusOK {
		t.Fatalf("valid query: %d %v", w.Code, body)
	}
}

// TestMetricsEndpoint: request traffic shows up per endpoint with status
// counts and sane latency percentiles, stage histograms surface when the
// daemon provides them, and the payload decodes into the exported
// MetricsResponse type the load generator scrapes.
func TestMetricsEndpoint(t *testing.T) {
	n := &fakeNode{
		status: &runtime.Status{},
		snap: &runtime.Snapshot{
			Epoch: 1, Model: mf.New(mf.DefaultConfig()),
			Ratings: []dataset.Rating{{User: 1, Item: 2, Value: 3}},
		},
	}
	stages := metrics.NewStageSet()
	stages.Observe("train", 20*time.Millisecond)
	stages.Observe("merge", 5*time.Millisecond)
	s, err := New(Config{Node: n, NumItems: 10, Stages: stages})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for i := 0; i < 10; i++ {
		if w, _ := get(t, h, "/recommend?user=1&n=2"); w.Code != http.StatusOK {
			t.Fatalf("recommend %d failed: %d", i, w.Code)
		}
	}
	post(t, h, "/rate", `{"user":1,"item":2,"value":3}`)
	post(t, h, "/rate", `{"user":1,"item":2,"value":99}`) // one 400

	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d %s", w.Code, w.Body.String())
	}
	var resp MetricsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	rec := resp.Endpoints["recommend"]
	if rec.Count != 10 || rec.Statuses[200] != 10 {
		t.Fatalf("recommend metrics %+v, want 10 requests all 200", rec)
	}
	if rec.P50Ms <= 0 || rec.P50Ms > rec.P99Ms {
		t.Fatalf("recommend percentiles not sane: p50=%v p99=%v", rec.P50Ms, rec.P99Ms)
	}
	rate := resp.Endpoints["rate"]
	if rate.Count != 2 || rate.Statuses[200] != 1 || rate.Statuses[400] != 1 {
		t.Fatalf("rate metrics %+v, want one 200 and one 400", rate)
	}
	if rec.Hist == nil || rec.Hist.Count != 10 {
		t.Fatal("raw histogram missing from /metrics (cluster merging needs it)")
	}
	if resp.Stages["train"].Count != 1 || resp.Stages["merge"].Count != 1 {
		t.Fatalf("stage histograms missing: %v", resp.Stages)
	}
	// Quantile of the decoded stage snapshot lands in the observed bucket.
	if q := resp.Stages["train"].Quantile(0.5); q < 18*time.Millisecond || q > 22*time.Millisecond {
		t.Fatalf("train p50 %v, want ~20ms", q)
	}
}
