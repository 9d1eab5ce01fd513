package runtime

import (
	"fmt"
	"math/rand"
	goruntime "runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/gossip"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/rank"
)

// tinyCluster builds n started D-PSGD REX engines, fully meshed over one
// ChanNet, on a corpus small enough (40 training ratings a node) that a
// few dozen epochs share every rating with every node: from then on an
// epoch grows neither a store nor a model. Tests step the engines in
// turn on one goroutine, as the benchmark does. Cleanup stops the
// engines and closes the endpoints.
func tinyCluster(t *testing.T, n int, secure bool) ([]*Engine, []Endpoint) {
	t.Helper()
	const users, items, perUser = 5, 30, 10
	rng := rand.New(rand.NewSource(5))
	newModel := func() model.Model { return mf.New(mf.DefaultConfig()) }
	eps := NewChanNet(n)
	cfgs := make([]Config, n)
	if secure {
		inf, platforms, err := Collateral(n, rand.New(rand.NewSource(9)))
		if err != nil {
			t.Fatal(err)
		}
		for i := range cfgs {
			cfgs[i] = Config{Secure: true, Platform: platforms[i], Infra: inf,
				Measurement: EnclaveMeasurement, Entropy: rand.New(rand.NewSource(int64(i)))}
		}
	}
	engines := make([]*Engine, n)
	for i := range engines {
		var train, test []dataset.Rating
		for u := i * users; u < (i+1)*users; u++ {
			for k, it := range rng.Perm(items)[:perUser] {
				rt := dataset.Rating{User: uint32(u), Item: uint32(it), Value: float32(1 + rng.Intn(5))}
				if k < 2 {
					test = append(test, rt)
				} else {
					train = append(train, rt)
				}
			}
		}
		cfg := cfgs[i]
		cfg.Node = core.NewNode(core.Config{
			ID: i, Mode: core.DataSharing, Algo: gossip.DPSGD,
			StepsPerEpoch: 40, SharePoints: 30, Seed: 3,
		}, newModel(), train, test)
		cfg.Endpoint = eps[i]
		for j := 0; j < n; j++ {
			if j != i {
				cfg.Neighbors = append(cfg.Neighbors, j)
			}
		}
		cfg.NewModel = newModel
		var err error
		if engines[i], err = NewEngine(cfg); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for i := range engines {
			engines[i].Stop()
			eps[i].Close()
		}
	})
	// Attestation is a conversation: every node starts at once.
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range engines {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = engines[i].Start()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d start: %v", i, err)
		}
	}
	return engines, eps
}

// stepAll runs one epoch of every engine, in node order.
func stepAll(t *testing.T, engines []*Engine) {
	for i, e := range engines {
		if _, err := e.Step(); err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
}

// TestWarmEpochAllocs guards the live epoch's bookkeeping: once a secure
// REX cluster is warm — every store and model saturated, every buffer,
// channel, map and timer sized, the runner's goroutines started, a
// released frame on every free list — a whole 4-node epoch allocates
// nothing, at one P (share goroutine) and at two (gather pool too). The
// bound is 0 with the RMSE trajectories' capacity reserved, so what is
// left is only what the data grows by, and here it grows by nothing.
// Under -race it is skipped: the test stage's sync.Pool scratch then
// misses about once an epoch by design.
func TestWarmEpochAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool items: allocation counts are not the build's")
	}
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("P%d", procs), func(t *testing.T) {
			defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
			engines, _ := tinyCluster(t, 4, true)
			for ep := 0; ep < 60; ep++ {
				stepAll(t, engines)
			}
			for _, e := range engines {
				if got, all := e.r.cfg.Node.Store.Len(), 4*40; got != all {
					t.Fatalf("node %d holds %d of %d ratings after warm-up: not saturated", e.r.cfg.Node.Cfg.ID, got, all)
				}
				e.r.stats.RMSE = slices.Grow(e.r.stats.RMSE, 100)
			}
			if n := testing.AllocsPerRun(20, func() { stepAll(t, engines) }); n != 0 {
				t.Fatalf("a warm 4-node epoch at %d P allocates %.0f objects, want 0", procs, n)
			}
		})
	}
}

// TestWarmPublishAllocs is TestWarmEpochAllocs' gate for Publish mode:
// a warm publishing epoch shares the store with its snapshot instead of
// copying it. Two native engines hold the same users×items grid, each
// point with the same value on both, so gossip brings a node only points
// it holds bit for bit and no warm epoch writes a store. A two-node epoch
// then allocates two model clones and a few small objects, well under one
// store's size; a copy of a store would be at least that. The last step
// shows the gate can see a copy: a new value for a published point makes
// node 0 copy its store.
func TestWarmPublishAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool items: allocation counts are not the build's")
	}
	const users, items = 100, 100
	var grid []dataset.Rating
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			grid = append(grid, dataset.Rating{User: uint32(u), Item: uint32(i), Value: float32(1 + (u*7+i*3)%5)})
		}
	}
	newModel := func() model.Model { return mf.New(mf.DefaultConfig()) }
	eps := NewChanNet(2)
	engines := make([]*Engine, 2)
	for i := range engines {
		node := core.NewNode(core.Config{
			ID: i, Mode: core.DataSharing, Algo: gossip.DPSGD,
			StepsPerEpoch: 2000, SharePoints: 30, Seed: 3,
		}, newModel(), grid, grid[:50])
		var err error
		engines[i], err = NewEngine(Config{Node: node, Endpoint: eps[i], Neighbors: []int{1 - i}, NewModel: newModel, Publish: true})
		if err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for i := range engines {
			engines[i].Stop()
			eps[i].Close()
		}
	})
	for i, e := range engines {
		if err := e.Start(); err != nil {
			t.Fatalf("node %d start: %v", i, err)
		}
	}
	for ep := 0; ep < 20; ep++ {
		stepAll(t, engines)
	}
	epochBytes := func(epochs int) uint64 {
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		for k := 0; k < epochs; k++ {
			stepAll(t, engines)
		}
		goruntime.ReadMemStats(&m1)
		return (m1.TotalAlloc - m0.TotalAlloc) / uint64(epochs)
	}
	storeBytes := uint64(len(grid)) * uint64(unsafe.Sizeof(dataset.Rating{}))
	if got := epochBytes(10); got >= storeBytes/2 {
		t.Fatalf("a warm publishing epoch allocates %d B, want well under the %d B store", got, storeBytes)
	}
	r := grid[0]
	r.Value++
	engines[0].Ingest([]dataset.Rating{r})
	if got := epochBytes(1); got < storeBytes {
		t.Fatalf("an epoch overwriting a published point allocates %d B, want the %d B store copied", got, storeBytes)
	}
}

// TestIndexDeriveAllocs is the serving half of that gate: deriving the
// rank index of a snapshot that extends the last one allocates the user
// table, the touched users' spans and the appended ratings' keys — four
// objects — not an index over every rating, which NewIndex allocates.
func TestIndexDeriveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool items: allocation counts are not the build's")
	}
	const users, items, touched = 2000, 50, 5
	ratings := make([]dataset.Rating, 0, users*items+touched)
	for u := 0; u < users; u++ {
		for i := 0; i < items; i++ {
			ratings = append(ratings, dataset.Rating{User: uint32(u), Item: uint32(2 * i)})
		}
	}
	prev := rank.NewIndex(ratings, 2*items)
	for k := 0; k < touched; k++ {
		ratings = append(ratings, dataset.Rating{User: uint32(k * 300), Item: uint32(2*k + 1)})
	}
	var next *rank.Index
	if n := testing.AllocsPerRun(20, func() { next = prev.Next(ratings, 2*items) }); n > 4 {
		t.Fatalf("deriving an index allocates %.0f objects, want at most 4", n)
	}
	if next == prev {
		t.Fatal("no new index derived")
	}
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	for k := 0; k < 20; k++ {
		next = prev.Next(ratings, 2*items)
	}
	goruntime.ReadMemStats(&m1)
	table := users * int(unsafe.Sizeof([]uint32(nil)))
	spans := touched * (items + 1) * 4
	keys := touched * 8
	if got, want := (m1.TotalAlloc-m0.TotalAlloc)/20, uint64(table+spans+keys); got > want+want/4+512 {
		t.Fatalf("deriving an index allocates %d B, want about %d B (user table %d, spans %d, keys %d)", got, want, table, spans, keys)
	}
}

// runnerGoroutines counts the live goroutines a runner started: its share
// goroutine and its gather workers. It counts them by the "created by" line
// of each stack, which is printed whether or not the goroutine has run yet;
// a created but never scheduled worker's top frame is its go wrapper
// (startPool.gowrap1), not gatherWorker.
func runnerGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := goruntime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	const by = "created by rex/internal/runtime.(*runner)."
	return strings.Count(string(buf), by+"startShare in goroutine ") + strings.Count(string(buf), by+"startPool in goroutine ")
}

// TestRunnerGoroutinesEnd pins the runner's goroutine lifecycle: the share
// goroutine and the gather pool start once and run between epochs, and
// all of them end once the engines stop, or, separately, once the
// endpoints close — runtime.NumGoroutine is back at its baseline.
func TestRunnerGoroutinesEnd(t *testing.T) {
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(2))
	for _, end := range []string{"Stop", "Close"} {
		t.Run(end, func(t *testing.T) {
			base := goruntime.NumGoroutine()
			engines, eps := tinyCluster(t, 4, false)
			for ep := 0; ep < 3; ep++ {
				stepAll(t, engines)
			}
			// Each node: one share goroutine and a two-worker gather pool.
			if got := runnerGoroutines(); got != 4*3 {
				t.Fatalf("%d runner goroutines after 3 epochs, want %d", got, 4*3)
			}
			for i := range engines {
				if end == "Stop" {
					engines[i].Stop()
				} else {
					eps[i].Close()
				}
			}
			deadline := time.Now().Add(10 * time.Second)
			for goruntime.NumGoroutine() > base || runnerGoroutines() > 0 {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines (%d runner) 10 s after %s, baseline %d",
						goruntime.NumGoroutine(), runnerGoroutines(), end, base)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
