package sim

import (
	"math"
	"testing"

	"rex/internal/core"
	"rex/internal/gossip"
)

func TestChurnSurvivorsConverge(t *testing.T) {
	cfg := smallConfig(t, core.DataSharing, gossip.DPSGD)
	cfg.FailAt = map[int]int{1: 10, 5: 10, 9: 15}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedNodes != 3 {
		t.Fatalf("failed nodes %d, want 3", res.FailedNodes)
	}
	if math.IsNaN(res.FinalRMSE) || res.FinalRMSE >= res.Series[0].MeanRMSE {
		t.Fatalf("survivors did not converge: %.4f", res.FinalRMSE)
	}
}

func TestChurnAllButOne(t *testing.T) {
	cfg := smallConfig(t, core.DataSharing, gossip.DPSGD)
	cfg.Epochs = 10
	cfg.FailAt = map[int]int{}
	for i := 1; i < cfg.Graph.N(); i++ {
		cfg.FailAt[i] = 3
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailedNodes != cfg.Graph.N()-1 {
		t.Fatalf("failed %d", res.FailedNodes)
	}
	// The lone survivor keeps training on its local store.
	if math.IsNaN(res.FinalRMSE) {
		t.Fatal("no RMSE from the survivor")
	}
}

func TestByzantinePoisoningDegrades(t *testing.T) {
	clean, err := Run(smallConfig(t, core.DataSharing, gossip.DPSGD))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(t, core.DataSharing, gossip.DPSGD)
	cfg.Byzantine = map[int]bool{0: true, 3: true, 7: true, 11: true, 15: true, 19: true}
	poisoned, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if poisoned.FinalRMSE <= clean.FinalRMSE {
		t.Fatalf("poisoning did not degrade accuracy: clean %.4f poisoned %.4f",
			clean.FinalRMSE, poisoned.FinalRMSE)
	}
}

func TestByzantineModelSharingDegrades(t *testing.T) {
	clean, err := Run(smallConfig(t, core.ModelSharing, gossip.DPSGD))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(t, core.ModelSharing, gossip.DPSGD)
	cfg.Byzantine = map[int]bool{0: true, 3: true, 7: true, 11: true, 15: true, 19: true}
	poisoned, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if poisoned.FinalRMSE <= clean.FinalRMSE {
		t.Fatalf("model poisoning did not degrade accuracy: %.4f vs %.4f",
			clean.FinalRMSE, poisoned.FinalRMSE)
	}
}

func TestHeapFactorsScaleMemory(t *testing.T) {
	base, err := Run(smallConfig(t, core.ModelSharing, gossip.DPSGD))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig(t, core.ModelSharing, gossip.DPSGD)
	cfg.Heap = PaperHeapFactors()
	scaled, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.PeakHeapBytes <= base.PeakHeapBytes {
		t.Fatalf("paper heap factors did not grow memory: %d vs %d",
			scaled.PeakHeapBytes, base.PeakHeapBytes)
	}
}

func TestTimeToRMSE(t *testing.T) {
	res, err := Run(smallConfig(t, core.DataSharing, gossip.DPSGD))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.TimeToRMSE(0.01); ok {
		t.Fatal("unreachable target reported reached")
	}
	tm, ok := res.TimeToRMSE(res.Series[0].MeanRMSE) // initial error: reached immediately
	if !ok || tm <= 0 {
		t.Fatalf("initial target: %v %v", tm, ok)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := smallConfig(t, core.DataSharing, gossip.DPSGD)
	cfg.Epochs = 0
	if _, err := Run(cfg); err == nil {
		t.Fatal("zero epochs accepted")
	}
	cfg2 := smallConfig(t, core.DataSharing, gossip.DPSGD)
	cfg2.Train = cfg2.Train[:3]
	if _, err := Run(cfg2); err == nil {
		t.Fatal("partition mismatch accepted")
	}
}

func TestEmptyRMWNotificationsCounted(t *testing.T) {
	// Under RMW every neighbor still gets a (tiny) notification each
	// epoch; bytes must reflect that but stay near the payload volume.
	res, err := Run(smallConfig(t, core.DataSharing, gossip.RMW))
	if err != nil {
		t.Fatal(err)
	}
	if res.BytesPerNode <= 0 {
		t.Fatal("no bytes accounted")
	}
	// Empty notifications are 16B each, payloads ~1.2KB: cumulative bytes
	// must be dominated by payloads (at least half).
	perEpoch := res.BytesPerNode / float64(len(res.Series))
	if perEpoch < 100 {
		t.Fatalf("per-epoch volume %f implausibly small", perEpoch)
	}
}

func TestSGXAttestationSetupCharged(t *testing.T) {
	cfg := smallConfig(t, core.DataSharing, gossip.DPSGD)
	cfg.Epochs = 5
	cfg.SGX = true
	cfg.AttestSetupSec = 1.0 // exaggerated for visibility
	with, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := smallConfig(t, core.DataSharing, gossip.DPSGD)
	cfg2.Epochs = 5
	cfg2.SGX = true
	without, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if with.TotalTimeMean <= without.TotalTimeMean+1 {
		t.Fatalf("attestation setup not charged: %.2f vs %.2f",
			with.TotalTimeMean, without.TotalTimeMean)
	}
}
