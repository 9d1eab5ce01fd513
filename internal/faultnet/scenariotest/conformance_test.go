package scenariotest

import (
	"math"
	"testing"

	"rex/internal/faultnet"
)

// envelopes gives each canned scenario its convergence bound: the maximum
// allowed ratio of final RMSE (across surviving nodes) to the fault-free
// run's final RMSE on the same backend. The matrix of what each scenario
// asserts is documented in README "Chaos scenarios".
var envelopes = map[string]float64{
	"faultfree":  1.0000001, // identity modulo float printing
	"lossy":      1.20,
	"flaky":      1.20,
	"split-heal": 1.20,
	"churn":      1.20,
}

func cannedByNameOrDie(t *testing.T, name string) *faultnet.Scenario {
	t.Helper()
	sc, ok := faultnet.CannedByName(name)
	if !ok {
		t.Fatalf("canned scenario %q missing", name)
	}
	return &sc
}

// TestReplayDeterminismSim: simulator leg of the replay acceptance over
// the whole canned library.
func TestReplayDeterminismSim(t *testing.T) {
	w := NewWorkload(t)
	for _, sc := range faultnet.Canned() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			a := RunSim(t, w, &sc)
			b := RunSim(t, w, &sc)
			SameTrajectories(t, "sim/"+sc.Name, a, b)
			if sc.Enabled() && len(a.Events) == 0 {
				t.Fatalf("scenario %q injected nothing", sc.Name)
			}
		})
	}
}

// TestReplayDeterminismChanNet: the live in-process cluster replays every
// canned scenario bit-for-bit — same seed and spec, two full cluster runs,
// identical per-node per-epoch RMSE and fault logs.
func TestReplayDeterminismChanNet(t *testing.T) {
	w := NewWorkload(t)
	for _, sc := range faultnet.Canned() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			a := RunChanNet(t, w, &sc, false)
			b := RunChanNet(t, w, &sc, false)
			SameTrajectories(t, "channet/"+sc.Name, a, b)
		})
	}
}

// TestReplayDeterminismChanNetSecure: the same property with attestation
// and AES-GCM sealing on — the explicit-sequence channel framing must
// absorb duplicates and reorders without perturbing the learning, and
// crypto must never leak nondeterminism into trajectories.
func TestReplayDeterminismChanNetSecure(t *testing.T) {
	w := NewWorkload(t)
	sc := cannedByNameOrDie(t, "flaky")
	a := RunChanNet(t, w, sc, true)
	b := RunChanNet(t, w, sc, true)
	SameTrajectories(t, "channet-secure/flaky", a, b)
	// And secure == native: transport protections never touch learning.
	native := RunChanNet(t, w, sc, false)
	SameTrajectories(t, "channet-secure-vs-native/flaky", a, native)
}

// TestReplayDeterminismTCP: the TCP leg of the acceptance, one TCPNet per
// node as rexd runs them, on the scenarios that cut or silence whole
// nodes: split-heal's partition (nodes 0,1 | 2,3) and churn's leave and
// rejoin, every frame over loopback TCP.
func TestReplayDeterminismTCP(t *testing.T) {
	w := NewWorkload(t)
	for _, name := range []string{"split-heal", "churn"} {
		sc := cannedByNameOrDie(t, name)
		t.Run(name, func(t *testing.T) {
			a := RunTCP(t, w, sc)
			b := RunTCP(t, w, sc)
			SameTrajectories(t, "tcp/"+name, a, b)
		})
	}
}

// TestTCPMatchesChanNet: the transport must never change the learning —
// a scenario replayed on the TCP cluster lands on the same trajectories
// as the in-process cluster (fault logs included).
func TestTCPMatchesChanNet(t *testing.T) {
	w := NewWorkload(t)
	sc := cannedByNameOrDie(t, "split-heal")
	chanRun := RunChanNet(t, w, sc, false)
	tcpRun := RunTCP(t, w, sc)
	SameTrajectories(t, "tcp-vs-channet/split-heal", chanRun, tcpRun)
}

// TestConvergenceEnvelopes: on every backend, each scenario's surviving
// nodes reach a final RMSE within the scenario's envelope of the
// fault-free run on that backend.
func TestConvergenceEnvelopes(t *testing.T) {
	w := NewWorkload(t)
	free := cannedByNameOrDie(t, "faultfree")
	backends := []struct {
		name string
		run  func(t *testing.T, sc *faultnet.Scenario) *Run
	}{
		{"sim", func(t *testing.T, sc *faultnet.Scenario) *Run { return RunSim(t, w, sc) }},
		{"channet", func(t *testing.T, sc *faultnet.Scenario) *Run { return RunChanNet(t, w, sc, false) }},
	}
	for _, be := range backends {
		be := be
		t.Run(be.name, func(t *testing.T) {
			base := be.run(t, free).FinalMeanRMSE()
			if math.IsNaN(base) || base <= 0 {
				t.Fatalf("fault-free baseline RMSE %v", base)
			}
			for _, sc := range faultnet.Canned() {
				sc := sc
				if sc.Name == "faultfree" {
					continue
				}
				t.Run(sc.Name, func(t *testing.T) {
					got := be.run(t, &sc).FinalMeanRMSE()
					bound := envelopes[sc.Name]
					if bound == 0 {
						t.Fatalf("scenario %q has no envelope entry", sc.Name)
					}
					if math.IsNaN(got) || got > base*bound {
						t.Fatalf("final RMSE %.4f outside envelope %.2fx of fault-free %.4f",
							got, bound, base)
					}
				})
			}
		})
	}
}

// TestLivenessDetectorPartitionHeal: the non-oracle (timeout-detector)
// partition on both live backends — the hard liveness case: cross traffic
// vanishes mid-run, the failure detector drops peers, probes restore them
// after the heal, and nothing deadlocks the per-peer lanes. Because heal
// timing races the symmetric timeouts, this asserts invariants, not
// bit-equality (the oracle scenarios above carry the bit-replay
// guarantee).
func TestLivenessDetectorPartitionHeal(t *testing.T) {
	w := NewWorkload(t)
	// Delay=1/15ms paces every round: after a bilateral drop the two halves
	// free-run with no cross barrier, and without pacing they can finish
	// their remaining (sub-millisecond) rounds before the first post-heal
	// probe crosses the wire — the rejoin would be a microsecond race.
	sc := &faultnet.Scenario{
		Name: "detector-split", Seed: 77, Epochs: 10,
		Delay: 1, DelayMs: 15,
		Partitions: []faultnet.Partition{{From: 2, Until: 4, Groups: [][]int{{0, 1}, {2, 3}}}},
		Rejoin:     true, TimeoutMs: 300, // grace 0: losses must occur and heal
	}
	check := func(t *testing.T, run *Run) {
		for i, st := range run.Stats {
			if st == nil {
				t.Fatalf("node %d missing stats", i)
			}
			if len(st.RMSE) != sc.Epochs {
				t.Fatalf("node %d ran %d epochs", i, len(st.RMSE))
			}
			if st.FinalRMSE <= 0 || st.FinalRMSE > 3 {
				t.Fatalf("node %d rmse %v", i, st.FinalRMSE)
			}
			// No upper bound on PeersLost: on a contended box the 300 ms
			// detector may also time out a same-side peer, which is legal
			// and heals through the same probe path.
			if st.PeersLost != st.Rejoins {
				t.Fatalf("node %d: %d losses, %d rejoins — partition did not heal", i, st.PeersLost, st.Rejoins)
			}
		}
	}
	t.Run("channet", func(t *testing.T) { check(t, RunChanNet(t, w, sc, false)) })
	t.Run("tcp", func(t *testing.T) { check(t, RunTCP(t, w, sc)) })
}

// TestFaultCountersSurfaceInStats: the runner exposes the wrapper's
// injected-fault counters (Stats.DroppedFrames/DelayedFrames) so operators
// can see adversity in live runs.
func TestFaultCountersSurfaceInStats(t *testing.T) {
	w := NewWorkload(t)
	run := RunChanNet(t, w, cannedByNameOrDie(t, "lossy"), false)
	var dropped, delayed int64
	for _, st := range run.Stats {
		dropped += st.DroppedFrames
		delayed += st.DelayedFrames
	}
	if dropped == 0 || delayed == 0 {
		t.Fatalf("fault counters not surfaced: dropped %d delayed %d", dropped, delayed)
	}
	c := faultnet.Counts{}
	for _, ev := range run.Events {
		if ev.Kind == faultnet.KindDrop {
			c.Dropped++
		}
	}
	if c.Dropped != dropped {
		t.Fatalf("stats count %d drops, log has %d", dropped, c.Dropped)
	}
}
