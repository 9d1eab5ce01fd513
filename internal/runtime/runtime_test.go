package runtime

import (
	"errors"
	"math"
	"math/rand"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"rex/internal/attest"
	"rex/internal/core"
	"rex/internal/dataset"
	"rex/internal/gossip"
	"rex/internal/mf"
	"rex/internal/model"
	"rex/internal/movielens"
	"rex/internal/topology"
)

func TestChanNetDelivery(t *testing.T) {
	eps := NewChanNet(3)
	if err := eps[0].Send(2, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	env := <-eps[2].Inbox()
	if env.From != 0 || string(env.Data) != "hi" {
		t.Fatalf("envelope %+v", env)
	}
	if err := eps[0].Send(9, nil); err == nil {
		t.Fatal("send to missing peer accepted")
	}
	eps[1].Close()
	eps[1].Close() // double close is safe
}

// TestChanNetPeerClosed pins the done-channel semantics that replaced the
// old recover()-on-closed-channel hack: a send to a closed peer reports
// ErrPeerClosed instead of silently succeeding (or masking real panics).
func TestChanNetPeerClosed(t *testing.T) {
	eps := NewChanNet(2)
	eps[1].Close()
	err := eps[0].Send(1, []byte("late"))
	if !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("send to closed peer: got %v, want ErrPeerClosed", err)
	}
	// A closed endpoint refuses its own sends too.
	eps[1].Close()
	if err := eps[1].Send(0, []byte("x")); err == nil {
		t.Fatal("closed endpoint accepted a send")
	}
	select {
	case <-eps[1].Done():
	default:
		t.Fatal("Done not closed after Close")
	}
}

func TestChanNetCopiesData(t *testing.T) {
	eps := NewChanNet(2)
	buf := []byte("abc")
	eps[0].Send(1, buf)
	buf[0] = 'X'
	env := <-eps[1].Inbox()
	if string(env.Data) != "abc" {
		t.Fatal("transport aliases sender buffer")
	}
}

func TestTCPNetRoundtrip(t *testing.T) {
	a, err := NewTCPNet(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPNet(1, "127.0.0.1:0", map[int]string{0: a.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := b.Send(0, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-a.Inbox():
		if env.From != 1 || string(env.Data) != "over tcp" {
			t.Fatalf("envelope %+v", env)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout")
	}
}

func TestTCPNetOrdering(t *testing.T) {
	a, err := NewTCPNet(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPNet(1, "127.0.0.1:0", map[int]string{0: a.ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for i := 0; i < 50; i++ {
		if err := b.Send(0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		select {
		case env := <-a.Inbox():
			if env.Data[0] != byte(i) {
				t.Fatalf("out of order: got %d want %d", env.Data[0], i)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("timeout")
		}
	}
}

func TestTCPNetUnknownPeer(t *testing.T) {
	a, err := NewTCPNet(0, "127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Send(7, []byte("x")); err == nil {
		t.Fatal("unknown peer accepted")
	}
}

// BenchmarkWireBatch measures the TCP lane's frame coalescing: one op
// bursts a 16-frame wave (the lane batch cap) at a single peer and waits
// for all deliveries. Because the sends enqueue far faster than the lane
// drains, the writer coalesces the queue into vectored writes — compare
// MB/s here against the one-frame-per-write round trip the ledger reports
// as runtime.tcp_roundtrip_us_16k.
func BenchmarkWireBatch(b *testing.B) {
	const burst = 16
	recv, err := NewTCPNet(1, "127.0.0.1:0", nil)
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	acks := make(chan struct{}, 2*burst)
	go func() {
		for range recv.Inbox() {
			acks <- struct{}{}
		}
	}()
	hub, err := NewTCPNet(0, "127.0.0.1:0", map[int]string{1: recv.ln.Addr().String()})
	if err != nil {
		b.Fatal(err)
	}
	defer hub.Close()

	frame := make([]byte, 4<<10) // ~ a delta share frame after packing
	b.SetBytes(int64(burst * len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for f := 0; f < burst; f++ {
			if err := hub.Send(1, frame); err != nil {
				b.Fatal(err)
			}
		}
		for f := 0; f < burst; f++ {
			<-acks
		}
	}
}

func TestPayloadCodecRoundtrip(t *testing.T) {
	mcfg := mf.DefaultConfig()
	m := mf.New(mcfg)
	m.Train([]dataset.Rating{{User: 1, Item: 2, Value: 4}}, 100, rand.New(rand.NewSource(1)))

	cases := []core.Payload{
		{From: 3, Degree: 7},
		{From: 1, Degree: 2, Data: []dataset.Rating{{User: 5, Item: 6, Value: 2.5}}},
		{From: 9, Degree: 4, Model: m},
	}
	for i, p := range cases {
		b, err := EncodePayloadAppend(nil, p)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got, err := DecodePayload(b, func() model.Model { return mf.New(mcfg) })
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.From != p.From || got.Degree != p.Degree {
			t.Fatalf("case %d header: %+v", i, got)
		}
		if (got.Model == nil) != (p.Model == nil) || len(got.Data) != len(p.Data) {
			t.Fatalf("case %d body kind mismatch", i)
		}
		if p.Model != nil && got.Model.Predict(1, 2) != p.Model.Predict(1, 2) {
			t.Fatalf("case %d model drifted", i)
		}
	}
}

func TestPayloadCodecErrors(t *testing.T) {
	if _, err := DecodePayload([]byte{1, 2}, nil); err == nil {
		t.Fatal("short payload accepted")
	}
	bad := make([]byte, 10)
	bad[8] = 99
	if _, err := DecodePayload(bad, func() model.Model { return nil }); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// newTCPMesh starts n TCPNets on loopback ports and wires them into a
// full mesh. Listeners come up first so peers can dial in any order; the
// peer maps are filled in before any Send, which is the only point the
// transport reads them.
func newTCPMesh(t *testing.T, n int) []*TCPNet {
	t.Helper()
	nets := make([]*TCPNet, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		tn, err := NewTCPNet(i, "127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { tn.Close() })
		nets[i] = tn
		addrs[i] = tn.ln.Addr().String()
	}
	for i := 0; i < n; i++ {
		peers := map[int]string{}
		for j := 0; j < n; j++ {
			if j != i {
				peers[j] = addrs[j]
			}
		}
		nets[i].peers = peers
	}
	return nets
}

// clusterWorkload builds a small live cluster configuration.
func clusterWorkload(t testing.TB, n int, mode core.Mode, algo gossip.Algo, epochs int) ClusterConfig {
	t.Helper()
	return clusterWorkloadSized(t, n, mode, algo, epochs, 21, 100, 30)
}

// clusterWorkloadSized is clusterWorkload with the seed and the per-epoch
// SGD step and share-point budgets chosen by the caller.
func clusterWorkloadSized(t testing.TB, n int, mode core.Mode, algo gossip.Algo, epochs int, seed int64, steps, share int) ClusterConfig {
	t.Helper()
	spec := movielens.Latest().Scaled(0.05)
	spec.Seed = seed
	ds := movielens.Generate(spec)
	rng := rand.New(rand.NewSource(seed))
	tr, te := ds.SplitPerUser(0.7, rng)
	trainParts, err := tr.PartitionUsersAcross(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	testParts, err := te.PartitionUsersAcross(n, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	mcfg := mf.DefaultConfig()
	nodes := make([]*core.Node, n)
	for i := range nodes {
		nodes[i] = core.NewNode(core.Config{
			ID: i, Mode: mode, Algo: algo,
			StepsPerEpoch: steps, SharePoints: share, Seed: seed,
		}, mf.New(mcfg), trainParts[i], testParts[i])
	}
	return ClusterConfig{
		Graph: topology.FullyConnected(n), Nodes: nodes, Epochs: epochs,
		NewModel: func() model.Model { return mf.New(mcfg) },
	}
}

func TestClusterSecureREX(t *testing.T) {
	cfg := clusterWorkload(t, 6, core.DataSharing, gossip.DPSGD, 8)
	cfg.Secure = true
	stats, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range stats {
		if s.Attested != 5 {
			t.Fatalf("node %d attested %d of 5 peers", i, s.Attested)
		}
		if s.FinalRMSE <= 0 || s.FinalRMSE > 3 {
			t.Fatalf("node %d rmse %v", i, s.FinalRMSE)
		}
		if s.BytesOut == 0 || s.BytesIn == 0 {
			t.Fatalf("node %d moved no data", i)
		}
		if len(s.RMSE) != 8 {
			t.Fatalf("node %d recorded %d epochs", i, len(s.RMSE))
		}
	}
}

func TestClusterNativeModelSharing(t *testing.T) {
	cfg := clusterWorkload(t, 4, core.ModelSharing, gossip.DPSGD, 6)
	stats, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var first, last float64
	for _, s := range stats {
		first += s.RMSE[0] / float64(len(stats))
		last += s.FinalRMSE / float64(len(stats))
	}
	if last >= first {
		t.Fatalf("model sharing did not improve: %.4f -> %.4f", first, last)
	}
	if stats[0].Attested != 0 {
		t.Fatal("native mode attested peers")
	}
}

func TestClusterRMW(t *testing.T) {
	cfg := clusterWorkload(t, 5, core.DataSharing, gossip.RMW, 6)
	cfg.Secure = true
	stats, err := RunCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// RMW moves far less data than D-PSGD would (one payload per epoch).
	for i, s := range stats {
		if s.BytesOut == 0 {
			t.Fatalf("node %d silent", i)
		}
	}
}

func TestClusterREXLessTrafficThanMS(t *testing.T) {
	rex, err := RunCluster(clusterWorkload(t, 4, core.DataSharing, gossip.DPSGD, 6))
	if err != nil {
		t.Fatal(err)
	}
	ms, err := RunCluster(clusterWorkload(t, 4, core.ModelSharing, gossip.DPSGD, 6))
	if err != nil {
		t.Fatal(err)
	}
	var rexB, msB int64
	for i := range rex {
		rexB += rex[i].BytesOut
		msB += ms[i].BytesOut
	}
	if rexB*5 > msB {
		t.Fatalf("expected >=5x traffic gap: REX %d MS %d", rexB, msB)
	}
}

func TestClusterSizeMismatch(t *testing.T) {
	cfg := clusterWorkload(t, 4, core.DataSharing, gossip.DPSGD, 2)
	cfg.Nodes = cfg.Nodes[:3]
	if _, err := RunCluster(cfg); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	eps := NewChanNet(1)
	nd := core.NewNode(core.Config{}, mf.New(mf.DefaultConfig()), nil, nil)
	if _, err := Run(Config{Node: nd, Endpoint: eps[0], Secure: true}); err == nil {
		t.Fatal("secure mode without platform accepted")
	}
}

// TestLiveOverTCPCluster is the end-to-end integration: three real TCP
// nodes, attestation, encrypted raw-data gossip.
func TestLiveOverTCPCluster(t *testing.T) {
	const n = 3
	cw := clusterWorkload(t, n, core.DataSharing, gossip.DPSGD, 5)
	nets := newTCPMesh(t, n)

	meas := attest.MeasureCode([]byte("rex-enclave-v1"))
	inf := attest.NewInfrastructure()
	platforms := make([]*attest.Platform, n)
	for i := range platforms {
		p, err := inf.NewPlatform(rand.New(rand.NewSource(int64(i + 1))))
		if err != nil {
			t.Fatal(err)
		}
		platforms[i] = p
	}

	type result struct {
		st  *Stats
		err error
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			neighbors := []int{}
			for j := 0; j < n; j++ {
				if j != i {
					neighbors = append(neighbors, j)
				}
			}
			st, err := Run(Config{
				Node: cw.Nodes[i], Endpoint: nets[i], Neighbors: neighbors,
				Epochs: 5, Secure: true,
				Platform: platforms[i], Infra: inf, Measurement: meas,
				NewModel: cw.NewModel,
				Entropy:  rand.New(rand.NewSource(int64(i + 500))),
			})
			results <- result{st, err}
		}(i)
	}
	for i := 0; i < n; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.st.Attested != n-1 {
				t.Fatalf("attested %d", r.st.Attested)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("TCP cluster timed out")
		}
	}
}

// TestClusterGoldenDeterminism is the ISSUE-3 trajectory-determinism
// acceptance: for a fixed seed, a secure in-proc cluster produces
// bit-identical per-epoch RMSE run to run (payload merge order is
// ascending neighbor id regardless of arrival/open order), and the native
// build of the same workload matches bit for bit too — encryption and
// transport must never touch the learning.
func TestClusterGoldenDeterminism(t *testing.T) {
	run := func(secure bool) []*Stats {
		cfg := clusterWorkload(t, 6, core.DataSharing, gossip.DPSGD, 6)
		cfg.Secure = secure
		stats, err := RunCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	a, b, native := run(true), run(true), run(false)
	for i := range a {
		if len(a[i].RMSE) != 6 || len(b[i].RMSE) != 6 || len(native[i].RMSE) != 6 {
			t.Fatalf("node %d: short trajectory", i)
		}
		for e := range a[i].RMSE {
			if math.Float64bits(a[i].RMSE[e]) != math.Float64bits(b[i].RMSE[e]) {
				t.Fatalf("node %d epoch %d: secure runs diverged: %v vs %v", i, e, a[i].RMSE[e], b[i].RMSE[e])
			}
			if math.Float64bits(a[i].RMSE[e]) != math.Float64bits(native[i].RMSE[e]) {
				t.Fatalf("node %d epoch %d: secure %v != native %v", i, e, a[i].RMSE[e], native[i].RMSE[e])
			}
		}
	}
}

// TestModelSharingAcrossWorkerCounts runs secure model sharing on a 4-node
// full mesh with one P and with four. With four, three gather workers per
// node share out the peers, each with its own open and word-plane
// scratch, decoding into per-peer receive models; with one, a single slot
// serves every peer in turn. The learning and the gossip bytes must not
// know the difference (and -race must see no worker touch another's slot
// or peer).
func TestModelSharingAcrossWorkerCounts(t *testing.T) {
	run := func(procs int) []*Stats {
		defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
		cfg := clusterWorkload(t, 4, core.ModelSharing, gossip.DPSGD, 5)
		cfg.Secure = true
		stats, err := RunCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	one, four := run(1), run(4)
	for i := range one {
		if len(one[i].RMSE) != 5 || len(four[i].RMSE) != 5 {
			t.Fatalf("node %d: short trajectory", i)
		}
		for e := range one[i].RMSE {
			if math.Float64bits(one[i].RMSE[e]) != math.Float64bits(four[i].RMSE[e]) {
				t.Fatalf("node %d epoch %d: RMSE %v on one P, %v on four", i, e, one[i].RMSE[e], four[i].RMSE[e])
			}
		}
		if one[i].BytesOut != four[i].BytesOut || one[i].BytesIn != four[i].BytesIn {
			t.Fatalf("node %d: gossip bytes out/in %d/%d on one P, %d/%d on four",
				i, one[i].BytesOut, one[i].BytesIn, four[i].BytesOut, four[i].BytesIn)
		}
		// BytesOnWire adds the attestation quotes, whose ECDSA signatures
		// vary by a few bytes of DER from run to run.
		if d := one[i].BytesOnWire - four[i].BytesOnWire; d < -64 || d > 64 {
			t.Fatalf("node %d: %d bytes on the wire on one P, %d on four", i, one[i].BytesOnWire, four[i].BytesOnWire)
		}
	}
}

// TestFailureDetectorOverTCP kills a peer mid-run on the real TCP
// transport: node 3 stops after 2 epochs and closes its endpoint; the
// survivors' RoundTimeout failure detector (plus per-peer send failures
// on the dead lanes) must drop it exactly once each and converge.
func TestFailureDetectorOverTCP(t *testing.T) {
	const n = 4
	const epochs = 6
	cw := clusterWorkload(t, n, core.DataSharing, gossip.DPSGD, epochs)
	nets := newTCPMesh(t, n)

	type result struct {
		id  int
		st  *Stats
		err error
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			neighbors := []int{}
			for j := 0; j < n; j++ {
				if j != i {
					neighbors = append(neighbors, j)
				}
			}
			ep := epochs
			if i == 3 {
				ep = 2 // node 3 "crashes" after epoch 2
			}
			st, err := Run(Config{
				Node: cw.Nodes[i], Endpoint: nets[i], Neighbors: neighbors,
				Epochs:       ep,
				NewModel:     cw.NewModel,
				RoundTimeout: 700 * time.Millisecond,
			})
			if i == 3 {
				nets[3].Close() // the crash: flush and drop the endpoint
			}
			results <- result{i, st, err}
		}(i)
	}
	for k := 0; k < n; k++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("node %d: %v", r.id, r.err)
			}
			if r.id == 3 {
				continue
			}
			if len(r.st.RMSE) != epochs {
				t.Fatalf("survivor %d ran %d epochs", r.id, len(r.st.RMSE))
			}
			if r.st.PeersLost != 1 {
				t.Fatalf("survivor %d lost %d peers, want 1", r.id, r.st.PeersLost)
			}
			if r.st.FinalRMSE <= 0 || r.st.FinalRMSE > 3 {
				t.Fatalf("survivor %d did not converge: RMSE %v", r.id, r.st.FinalRMSE)
			}
		case <-time.After(60 * time.Second):
			t.Fatal("TCP cluster hung despite failure detector")
		}
	}
}

// TestTCPNetConcurrentLanes exercises the per-peer outbound lanes under
// the race detector: every node blasts frames at every peer from several
// goroutines at once while receivers drain, then everything closes
// concurrently.
func TestTCPNetConcurrentLanes(t *testing.T) {
	const (
		n       = 4
		senders = 3
		frames  = 40
	)
	nets := newTCPMesh(t, n)

	want := (n - 1) * senders * frames
	var recvWG sync.WaitGroup
	for i := 0; i < n; i++ {
		recvWG.Add(1)
		go func(tn *TCPNet) {
			defer recvWG.Done()
			got := 0
			for got < want {
				select {
				case <-tn.Inbox():
					got++
				case <-time.After(30 * time.Second):
					t.Errorf("receiver got %d of %d frames", got, want)
					return
				}
			}
		}(nets[i])
	}
	var sendWG sync.WaitGroup
	for i := 0; i < n; i++ {
		for s := 0; s < senders; s++ {
			sendWG.Add(1)
			go func(tn *TCPNet, id, s int) {
				defer sendWG.Done()
				payload := make([]byte, 256)
				for f := 0; f < frames; f++ {
					for j := 0; j < n; j++ {
						if j == id {
							continue
						}
						payload[0] = byte(f)
						if err := tn.Send(j, payload); err != nil {
							t.Errorf("send %d->%d: %v", id, j, err)
							return
						}
					}
				}
			}(nets[i], i, s)
		}
	}
	sendWG.Wait()
	recvWG.Wait()
	if hwm := nets[0].SendQueueHWM(); hwm <= 0 {
		t.Fatalf("lane queue high-water mark not recorded: %d", hwm)
	}
	var closeWG sync.WaitGroup
	for i := 0; i < n; i++ {
		closeWG.Add(1)
		go func(tn *TCPNet) {
			defer closeWG.Done()
			tn.Close()
		}(nets[i])
	}
	closeWG.Wait()
}

// TestFailureDetectorDropsDeadPeer runs a 4-node cluster where one node
// stops after 2 epochs; the survivors' timeout-based failure detection
// (the paper's deferred §III-D mechanism) drops it and they finish.
func TestFailureDetectorDropsDeadPeer(t *testing.T) {
	const n = 4
	const epochs = 6
	cw := clusterWorkload(t, n, core.DataSharing, gossip.DPSGD, epochs)
	eps := NewChanNet(n)

	type result struct {
		id  int
		st  *Stats
		err error
	}
	results := make(chan result, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			neighbors := []int{}
			for j := 0; j < n; j++ {
				if j != i {
					neighbors = append(neighbors, j)
				}
			}
			ep := epochs
			if i == 3 {
				ep = 2 // node 3 "crashes" after epoch 2
			}
			st, err := Run(Config{
				Node: cw.Nodes[i], Endpoint: eps[i], Neighbors: neighbors,
				Epochs:       ep,
				NewModel:     cw.NewModel,
				RoundTimeout: 500 * time.Millisecond,
			})
			results <- result{i, st, err}
		}(i)
	}
	for k := 0; k < n; k++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("node %d: %v", r.id, r.err)
			}
			if r.id != 3 {
				if len(r.st.RMSE) != epochs {
					t.Fatalf("survivor %d ran %d epochs", r.id, len(r.st.RMSE))
				}
				if r.st.PeersLost != 1 {
					t.Fatalf("survivor %d lost %d peers, want 1", r.id, r.st.PeersLost)
				}
			}
		case <-time.After(30 * time.Second):
			t.Fatal("cluster hung despite failure detector")
		}
	}
	for i := range eps {
		eps[i].Close()
	}
}
