package scenariotest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"rex/internal/faultnet"
)

// flatWireDigests are the trajectories the flat-frame wire produced, one
// trajectoryDigest per case of TestDeltaWireMatchesFlatTrajectories. They
// were recorded at commit 2e0ec37, the last to carry that wire, from
// flat-frame runs of these exact cases (identical under REX_VEC=go and
// avx2, -cpu 1 and 4, and equal to that commit's delta runs). They are the
// reference for "the delta wire is pure compression" now that no second
// encoder exists to compare against, and are never regenerated: a mismatch
// means the learning or the fault schedule changed, not the constant.
var flatWireDigests = map[string]string{
	"faultfree":           "1468ce658f06d371bfc5897f174669ae480e24f278e507eb6ecbaa688694b8ac",
	"lossy":               "15633f5b1450d54b2f702cc4da17173fac76f9af1bfb1d2c2dced577273a25d1",
	"flaky":               "ff7757978846332d048ffa90837fb5f4d1d51cc64481ac147e6e741c4b543d5a",
	"split-heal":          "0ad0b51f722ae67ac28659d96c5a83d814c3e669d7504139e53198316a48f480",
	"secure-flaky":        "ff7757978846332d048ffa90837fb5f4d1d51cc64481ac147e6e741c4b543d5a",
	"shardtcp-split-heal": "0ad0b51f722ae67ac28659d96c5a83d814c3e669d7504139e53198316a48f480",
	"delta-stress":        "1b795d0e270eb16f57904774c0fbb93f9728bf145dad6704303b48d270f3a5a2",
}

// trajectoryDigest hashes what SameTrajectories compares: the node count,
// then per node its epoch count and every epoch's RMSE bits (all
// little-endian), then the fault log, one Event.String() line per event.
func trajectoryDigest(r *Run) string {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(r.RMSE)))
	for _, row := range r.RMSE {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(row)))
		for _, v := range row {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	h := sha256.New()
	h.Write(b)
	for _, ev := range r.Events {
		fmt.Fprintf(h, "%s\n", ev)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestDeltaWireMatchesFlatTrajectories is the wire-equivalence acceptance:
// under drops, duplicates, reorders, partitions and forced stream resets,
// natively, sealed and over the sharded TCP bridge, the delta wire lands
// on exactly the per-node per-epoch RMSE and fault log the flat-frame wire
// recorded — delta encoding is pure wire compression, invisible to the
// learning.
func TestDeltaWireMatchesFlatTrajectories(t *testing.T) {
	w := NewWorkload(t)
	for _, tc := range []struct {
		name string
		run  func(t *testing.T) *Run
	}{
		{"faultfree", chanNetCase(w, "faultfree", false)},
		{"lossy", chanNetCase(w, "lossy", false)},
		{"flaky", chanNetCase(w, "flaky", false)},
		{"split-heal", chanNetCase(w, "split-heal", false)},
		{"secure-flaky", chanNetCase(w, "flaky", true)},
		{"shardtcp-split-heal", func(t *testing.T) *Run {
			return RunShardTCP(t, w, cannedByNameOrDie(t, "split-heal"))
		}},
		{"delta-stress", func(t *testing.T) *Run { return RunChanNet(t, w, deltaStress(), false) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got, want := trajectoryDigest(tc.run(t)), flatWireDigests[tc.name]; got != want {
				t.Fatalf("trajectory digest %s, the flat wire recorded %s", got, want)
			}
		})
	}
}

// chanNetCase runs a canned scenario on an in-process cluster.
func chanNetCase(w *Workload, scenario string, secure bool) func(t *testing.T) *Run {
	return func(t *testing.T) *Run {
		return RunChanNet(t, w, cannedByNameOrDie(t, scenario), secure)
	}
}

// deltaStress is a dedicated high-loss scenario: every directed edge
// loses enough consecutive frames that receivers open sequence gaps past
// the resync threshold, forcing full-frame stream resets mid-run.
func deltaStress() *faultnet.Scenario {
	return &faultnet.Scenario{
		Name: "delta-stress", Seed: 31, Epochs: 10,
		Drop:        0.35,
		GraceRounds: 12, Rejoin: true, TimeoutMs: 5000, Oracle: true,
	}
}

// TestDeltaResyncRecovery drives the delta stream's loss-recovery path on
// a live cluster: the lossy link must tick Stats.Resyncs (at least one
// full-frame stream reset was sent) and replay bit-for-bit; its
// trajectories are pinned against the flat wire's in
// TestDeltaWireMatchesFlatTrajectories/delta-stress.
func TestDeltaResyncRecovery(t *testing.T) {
	w := NewWorkload(t)
	sc := deltaStress()

	a := RunChanNet(t, w, sc, false)
	b := RunChanNet(t, w, sc, false)
	SameTrajectories(t, "delta-stress replay", a, b)

	var resyncs, refs int64
	for _, st := range a.Stats {
		resyncs += st.Resyncs
		refs += st.DeltaRefs
	}
	if resyncs == 0 {
		t.Fatal("high-loss run sent no stream resets — resync path never exercised")
	}
	if refs == 0 {
		t.Fatal("no back-references at all — delta encoding degenerated to full frames")
	}
}

// TestWireCountersSurface checks the accounting the operator sees: on the
// delta wire, raw-equivalent bytes exceed bytes on the wire (the saving
// is real) and reference counts are nonzero on a fault-free run.
func TestWireCountersSurface(t *testing.T) {
	w := NewWorkload(t)
	run := RunChanNet(t, w, cannedByNameOrDie(t, "faultfree"), false)
	var raw, wire, refs int64
	for _, st := range run.Stats {
		raw += st.WireRawBytes
		wire += st.BytesOnWire
		refs += st.DeltaRefs
	}
	if refs == 0 {
		t.Fatal("fault-free delta run produced no back-references")
	}
	if raw <= wire {
		t.Fatalf("delta wire saved nothing: raw-equivalent %d <= on the wire %d", raw, wire)
	}
}
