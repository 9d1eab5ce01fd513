package serve

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"testing"

	"rex/internal/dataset"
	"rex/internal/mf"
	"rex/internal/rank"
	"rex/internal/runtime"
)

// fuzzCatalog is the fuzzed servers' catalog size.
const fuzzCatalog = 300

// walNode is a fakeNode behind a server whose durability hook records
// every batch it is handed.
func walNode(tb testing.TB, snap *runtime.Snapshot) (*fakeNode, *[]dataset.Rating, http.Handler) {
	tb.Helper()
	n := &fakeNode{status: &runtime.Status{}, snap: snap}
	wal := new([]dataset.Rating)
	s, err := New(Config{Node: n, NumItems: fuzzCatalog, OnRate: func(rs []dataset.Rating) error {
		*wal = append(*wal, rs...)
		return nil
	}})
	if err != nil {
		tb.Fatal(err)
	}
	return n, wal, s.Handler()
}

// FuzzRateBody posts arbitrary bytes to /rate. The handler must never
// panic and must answer 200 or 400. A 400 leaves the WAL and the mailbox
// untouched. A 200 logged exactly what it ingested, before ingesting it,
// reports that count as accepted, and every rating is one validateRating
// admits.
func FuzzRateBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		n, wal, h := walNode(t, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/rate", bytes.NewReader(body)))
		var resp map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("status %d with a non-JSON body %q", w.Code, w.Body.String())
		}
		switch w.Code {
		case http.StatusBadRequest:
			if len(*wal) != 0 || len(n.ingested) != 0 {
				t.Fatalf("a 400 (%v) logged %d ratings and ingested %d", resp["error"], len(*wal), len(n.ingested))
			}
		case http.StatusOK:
			if !slices.Equal(*wal, n.ingested) {
				t.Fatalf("logged %v, ingested %v", *wal, n.ingested)
			}
			if got, ok := resp["accepted"].(float64); !ok || int(got) != len(n.ingested) {
				t.Fatalf("accepted %v, ingested %d", resp["accepted"], len(n.ingested))
			}
			for i, r := range n.ingested {
				if err := validateRating(i, Rating{User: r.User, Item: r.Item, Value: r.Value}, fuzzCatalog); err != nil {
					t.Fatalf("ingested a rating validation refuses: %v", err)
				}
			}
		default:
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	})
}

// fuzzSnapshot is a trained MF model holding 60 of the catalog's items,
// so most items take the cold tail, and the ratings it trained on.
func fuzzSnapshot() *runtime.Snapshot {
	rng := rand.New(rand.NewSource(61))
	ratings := make([]dataset.Rating, 400)
	for i := range ratings {
		ratings[i] = dataset.Rating{
			User:  uint32(rng.Intn(20)),
			Item:  uint32(5 * rng.Intn(60)),
			Value: float32(rng.Intn(9)+1) / 2,
		}
	}
	m := mf.New(mf.DefaultConfig())
	m.Train(ratings, 2000, rng)
	m.Canonicalize()
	return &runtime.Snapshot{Epoch: 1, Model: m, Ratings: ratings}
}

// FuzzRecommendQuery sends an arbitrary query string to /recommend over a
// trained snapshot. The handler must never panic and must answer 200 or
// 400, and it never touches the WAL or the mailbox. A 200 is the parsed
// user's list of at most n distinct in-catalog items the user has not
// rated, in the ranking's total order.
func FuzzRecommendQuery(f *testing.F) {
	snap := fuzzSnapshot()
	f.Fuzz(func(t *testing.T, query string) {
		n, wal, h := walNode(t, snap)
		req := httptest.NewRequest(http.MethodGet, "/recommend", nil)
		req.URL.RawQuery = query
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if len(*wal) != 0 || len(n.ingested) != 0 {
			t.Fatalf("/recommend logged %d ratings and ingested %d", len(*wal), len(n.ingested))
		}
		switch w.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		var resp RecommendResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 with a bad body %q: %v", w.Body.String(), err)
		}
		q := req.URL.Query()
		user, err := strconv.ParseUint(q.Get("user"), 10, 32)
		if err != nil || resp.User != uint32(user) {
			t.Fatalf("200 for user %q answers user %d", q.Get("user"), resp.User)
		}
		limit := 10
		if v := q.Get("n"); v != "" {
			limit, _ = strconv.Atoi(v)
		}
		if len(resp.Items) > limit {
			t.Fatalf("%d items for n=%d", len(resp.Items), limit)
		}
		seen := rank.SeenSet(snap.Ratings, resp.User)
		listed := make(map[uint32]bool, len(resp.Items))
		for i, it := range resp.Items {
			if it.Item >= fuzzCatalog || seen[it.Item] || listed[it.Item] {
				t.Fatalf("item %d: outside the catalog, rated by the user or listed twice", it.Item)
			}
			listed[it.Item] = true
			if i == 0 {
				continue
			}
			if prev := resp.Items[i-1]; !ranksBefore(prev, it) {
				t.Fatalf("rank %d: (%d, %v) listed after (%d, %v)", i, it.Item, it.Score, prev.Item, prev.Score)
			}
		}
	})
}

// ranksBefore is the ranking's total order on a 200's items, which are
// numbers (JSON carries no NaN): a higher score first, equal scores by
// ascending id.
func ranksBefore(a, b RecommendItem) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Item < b.Item
}
