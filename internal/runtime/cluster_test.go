package runtime_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	goruntime "runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"rex/internal/core"
	"rex/internal/faultnet/scenariotest"
	"rex/internal/gossip"
	"rex/internal/runtime"
)

// These tests run whole live clusters, through scenariotest.RunCluster,
// the one way a test runs a cluster.

// workload is an n-node cluster workload on the conformance corpus
// (scale 0.05, seed 21) with the given sharing mode and dissemination.
func workload(t testing.TB, n int, mode core.Mode, algo gossip.Algo) *scenariotest.Workload {
	t.Helper()
	w := scenariotest.NewWorkloadSized(t, n, 0.05, 21)
	w.Node.Mode, w.Node.Algo = mode, algo
	return w
}

// runChanNet runs w for epochs epochs on an in-process cluster.
func runChanNet(t testing.TB, w *scenariotest.Workload, epochs int, secure bool) []*runtime.Stats {
	t.Helper()
	stats, err := scenariotest.RunCluster(w.Configs(t, runtime.NewChanNet(w.Graph.N()), secure), epochs, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

func TestClusterSecureREX(t *testing.T) {
	stats := runChanNet(t, workload(t, 6, core.DataSharing, gossip.DPSGD), 8, true)
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
	stats := runChanNet(t, workload(t, 4, core.ModelSharing, gossip.DPSGD), 6, false)
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
	stats := runChanNet(t, workload(t, 5, core.DataSharing, gossip.RMW), 6, true)
	// RMW moves far less data than D-PSGD would (one payload per epoch).
	for i, s := range stats {
		if s.BytesOut == 0 {
			t.Fatalf("node %d silent", i)
		}
	}
}

func TestClusterREXLessTrafficThanMS(t *testing.T) {
	rex := runChanNet(t, workload(t, 4, core.DataSharing, gossip.DPSGD), 6, false)
	ms := runChanNet(t, workload(t, 4, core.ModelSharing, gossip.DPSGD), 6, false)
	var rexB, msB int64
	for i := range rex {
		rexB += rex[i].BytesOut
		msB += ms[i].BytesOut
	}
	if rexB*5 > msB {
		t.Fatalf("expected >=5x traffic gap: REX %d MS %d", rexB, msB)
	}
}

// TestLiveOverTCPCluster is the end-to-end integration: three real TCP
// nodes, attestation, encrypted raw-data gossip.
func TestLiveOverTCPCluster(t *testing.T) {
	const n = 3
	w := workload(t, n, core.DataSharing, gossip.DPSGD)
	stats, err := scenariotest.RunCluster(w.Configs(t, scenariotest.TCPMesh(t, n), true), 5, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range stats {
		if s.Attested != n-1 {
			t.Fatalf("node %d attested %d", i, s.Attested)
		}
	}
}

// TestShardedClusterMatchesInProc runs the same secure workload once as a
// single in-process cluster and once split into one shard per node, each
// on its own loopback TCPNet as `rexd -id i -nodes ...` processes run,
// and requires every node to attest all its peers and land on a
// bit-identical per-epoch RMSE trajectory: splitting the cluster changes
// the transport, never the learning.
func TestShardedClusterMatchesInProc(t *testing.T) {
	const (
		n      = 6
		epochs = 5
	)
	ref := runChanNet(t, workload(t, n, core.DataSharing, gossip.DPSGD), epochs, true)

	w := workload(t, n, core.DataSharing, gossip.DPSGD)
	cfgs := w.Configs(t, scenariotest.TCPMesh(t, n), true)
	type result struct {
		stats []*runtime.Stats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := scenariotest.RunCluster(cfgs, epochs, nil, nil)
		done <- result{stats, err}
	}()
	var sharded []*runtime.Stats
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		sharded = r.stats
	case <-time.After(60 * time.Second):
		t.Fatal("sharded cluster timed out")
	}

	for i := 0; i < n; i++ {
		st := sharded[i]
		if st.Attested != n-1 {
			t.Fatalf("sharded node %d attested %d of %d", i, st.Attested, n-1)
		}
		if len(st.RMSE) != epochs || len(ref[i].RMSE) != epochs {
			t.Fatalf("node %d: %d vs %d epochs, want %d", i, len(st.RMSE), len(ref[i].RMSE), epochs)
		}
		for e := range st.RMSE {
			if math.Float64bits(st.RMSE[e]) != math.Float64bits(ref[i].RMSE[e]) {
				t.Fatalf("node %d epoch %d: sharded %v != in-proc %v", i, e, st.RMSE[e], ref[i].RMSE[e])
			}
		}
	}
}

// TestClusterGoldenDeterminism is the trajectory-determinism acceptance:
// for a fixed seed, a secure in-proc cluster produces bit-identical
// per-epoch RMSE run to run (payload merge order is ascending neighbor id
// regardless of arrival/open order), and the native build of the same
// workload matches bit for bit too — encryption and transport must never
// touch the learning.
func TestClusterGoldenDeterminism(t *testing.T) {
	run := func(secure bool) []*runtime.Stats {
		return runChanNet(t, workload(t, 6, core.DataSharing, gossip.DPSGD), 6, secure)
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
	run := func(procs int) []*runtime.Stats {
		defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(procs))
		return runChanNet(t, workload(t, 4, core.ModelSharing, gossip.DPSGD), 5, true)
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

// crashOneOfFour runs a 4-node cluster on eps in which node 3 stops after
// 2 of 6 epochs — it "crashes"; with closeCrashed its endpoint closes at
// once, as a dead process's sockets do. The survivors' failure detector
// (RoundTimeout, plus per-peer send failures on dead lanes) must drop it
// exactly once each, and they must finish and converge.
func crashOneOfFour(t *testing.T, eps []runtime.Endpoint, timeout time.Duration, closeCrashed bool) {
	const n, epochs = 4, 6
	cfgs := workload(t, n, core.DataSharing, gossip.DPSGD).Configs(t, eps, false)
	stats := make([]*runtime.Stats, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range cfgs {
		cfgs[i].RoundTimeout = timeout
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i != 3 {
				stats[i], errs[i] = scenariotest.RunNode(cfgs[i], epochs)
				return
			}
			_, errs[i] = scenariotest.RunNode(cfgs[i], 2)
			if closeCrashed {
				eps[i].Close()
			}
		}()
	}
	wg.Wait()
	for _, ep := range eps {
		ep.Close()
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for i, st := range stats[:3] {
		if len(st.RMSE) != epochs {
			t.Fatalf("survivor %d ran %d epochs", i, len(st.RMSE))
		}
		if st.PeersLost != 1 {
			t.Fatalf("survivor %d lost %d peers, want 1", i, st.PeersLost)
		}
		if st.FinalRMSE <= 0 || st.FinalRMSE > 3 {
			t.Fatalf("survivor %d did not converge: RMSE %v", i, st.FinalRMSE)
		}
	}
}

// TestFailureDetectorOverTCP kills a peer mid-run on the real TCP
// transport: node 3 stops after 2 epochs and closes its endpoint.
func TestFailureDetectorOverTCP(t *testing.T) {
	crashOneOfFour(t, scenariotest.TCPMesh(t, 4), 700*time.Millisecond, true)
}

// TestFailureDetectorDropsDeadPeer runs a 4-node in-process cluster where
// one node stops after 2 epochs; the survivors' timeout-based failure
// detection (the paper's deferred §III-D mechanism) drops it and they
// finish.
func TestFailureDetectorDropsDeadPeer(t *testing.T) {
	crashOneOfFour(t, runtime.NewChanNet(4), 500*time.Millisecond, false)
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
	nets := scenariotest.TCPMesh(t, n)

	want := (n - 1) * senders * frames
	var recvWG sync.WaitGroup
	for i := 0; i < n; i++ {
		recvWG.Add(1)
		go func(tn runtime.Endpoint) {
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
			go func(tn runtime.Endpoint, id, s int) {
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
	if hwm := nets[0].(runtime.QueueReporter).SendQueueHWM(); hwm <= 0 {
		t.Fatalf("lane queue high-water mark not recorded: %d", hwm)
	}
	var closeWG sync.WaitGroup
	for i := 0; i < n; i++ {
		closeWG.Add(1)
		go func(tn runtime.Endpoint) {
			defer closeWG.Done()
			tn.Close()
		}(nets[i])
	}
	closeWG.Wait()
}

// savingFloorFlatDigest is rmseDigest of the trajectories the flat-frame
// wire produced on TestDeltaWireSavingFloor's workload, native and secure
// alike. It was recorded at commit 2e0ec37, the last to carry that wire
// (identical under REX_VEC=go and avx2, -cpu 1 and 4), and is never
// regenerated: it stands in for the second encoder the floor used to run
// beside the delta wire.
const savingFloorFlatDigest = "9344ad83b6f7a50e8a284ef06e6b6826d65781b3d8b7ce548544bdbd965fb587"

// rmseDigest hashes every node's RMSE trajectory: the node count, then per
// node its epoch count and every epoch's RMSE bits, all little-endian.
func rmseDigest(stats []*runtime.Stats) string {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(stats)))
	for _, s := range stats {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.RMSE)))
		for _, v := range s.RMSE {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestDeltaWireSavingFloor holds the delta wire's reason to exist: on the
// live 8-node full mesh (D-PSGD raw-data sharing, light training, 400
// shared points per epoch — the runtime-weighted workload) the flat
// reference encoding of the frames sent (Stats.WireRawBytes) must cost at
// least 3x the bytes the delta wire put on it (Stats.BytesOnWire), native
// and secure, with every node's trajectory the one the flat wire produced.
// Bytes are deterministic per seed, so the floor cannot flake. Secure
// reads lower (4.9x against 5.76x) because BytesOnWire also pays the seal
// overhead and the attestation handshakes. The workload matters: on the
// fault-free 4-node x 30-point scenariotest cluster the secure ratio is
// 1.6x (native 4.3x), because the handshakes dominate.
func TestDeltaWireSavingFloor(t *testing.T) {
	const floor = 3.0
	for _, secure := range []bool{false, true} {
		w := scenariotest.NewWorkloadSized(t, 8, 0.05, 33)
		w.Node.StepsPerEpoch, w.Node.SharePoints = 50, 400
		stats := runChanNet(t, w, 6, secure)
		if got := rmseDigest(stats); got != savingFloorFlatDigest {
			t.Fatalf("secure=%v: trajectory digest %s, the flat wire recorded %s", secure, got, savingFloorFlatDigest)
		}
		var raw, onWire int64
		for _, s := range stats {
			raw += s.WireRawBytes
			onWire += s.BytesOnWire
		}
		ratio := float64(raw) / float64(onWire)
		t.Logf("secure=%v: flat %d B, delta %d B on the wire, %.2fx", secure, raw, onWire, ratio)
		if ratio < floor {
			t.Errorf("secure=%v: flat/delta wire bytes %.2fx, want >= %.1fx", secure, ratio, floor)
		}
	}
}

// scribbleEndpoint is a ChanNet port that fills every frame the runner
// releases with 0xA5 before recycling it, so a read of a frame after its
// release would see garbage.
type scribbleEndpoint struct {
	runtime.Endpoint
}

func (s scribbleEndpoint) Release(frame []byte) {
	for i := range frame {
		frame[i] = 0xA5
	}
	s.Endpoint.(runtime.Releaser).Release(frame)
}

// TestReleasedFramesUnread proves that nothing reads a frame after the
// runner releases it: with every released frame scribbled over before it
// is recycled, every node's per-epoch RMSE is bit-equal to a plain run's,
// native and secure, raw-data and model sharing.
func TestReleasedFramesUnread(t *testing.T) {
	for _, mode := range []core.Mode{core.DataSharing, core.ModelSharing} {
		for _, secure := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/secure=%v", mode, secure), func(t *testing.T) {
				w := workload(t, 4, mode, gossip.DPSGD)
				plain := runChanNet(t, w, 6, secure)
				cfgs := w.Configs(t, runtime.NewChanNet(4), secure)
				for i := range cfgs {
					cfgs[i].Endpoint = scribbleEndpoint{cfgs[i].Endpoint}
				}
				scribbled, err := scenariotest.RunCluster(cfgs, 6, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := range plain {
					a, b := plain[i].RMSE, scribbled[i].RMSE
					if !slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
						t.Fatalf("node %d: RMSE %v with scribbled releases, %v plain", i, b, a)
					}
				}
			})
		}
	}
}
