package experiments

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"rex/internal/core"
	"rex/internal/gossip"
)

// TestRegistryComplete pins the exact registry: the paper's eleven
// artifacts in paper order, then the extensions in ID order. Adding or
// dropping an experiment must edit this list.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"table1", "fig1", "fig2", "table2", "fig3", "fig4", "table3", "fig5", "fig6", "fig7", "table4",
		"ext-churn", "ext-knn", "ext-noniid", "ext-poison",
	}
	if ids := IDs(); !slices.Equal(ids, want) {
		t.Fatalf("IDs() = %q\nwant     %q", ids, want)
	}
	for _, id := range want {
		if e, ok := ByID(id); !ok || e.ID != id {
			t.Fatalf("ByID(%q) does not resolve", id)
		}
	}
	if _, ok := ByID("nonsense"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestTable1Output(t *testing.T) {
	e, _ := ByID("table1")
	var buf bytes.Buffer
	if err := e.Run(Params{Seed: 1, Out: &buf}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "MovieLens Latest", "25M", "Ratings"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 output missing %q:\n%s", want, out)
		}
	}
}

// TestSGXExperimentShape runs the (memoized) Fig 6/Fig 7 cells once and
// checks the paper's Table IV invariants: REX overhead far below model
// sharing's, overhead growing with memory, and the large dataset pushing
// model sharing beyond the EPC.
func TestSGXExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	p := Params{Seed: 1}.defaults()
	type row struct{ rexOverhead, msOverhead float64 }
	get := func(big bool) row {
		rexNat, err := sgxRun(p, big, sgxCell{algoOf("dpsgd"), modeOf("rex"), false})
		if err != nil {
			t.Fatal(err)
		}
		rexSGX, err := sgxRun(p, big, sgxCell{algoOf("dpsgd"), modeOf("rex"), true})
		if err != nil {
			t.Fatal(err)
		}
		msNat, err := sgxRun(p, big, sgxCell{algoOf("dpsgd"), modeOf("ms"), false})
		if err != nil {
			t.Fatal(err)
		}
		msSGX, err := sgxRun(p, big, sgxCell{algoOf("dpsgd"), modeOf("ms"), true})
		if err != nil {
			t.Fatal(err)
		}
		return row{
			rexOverhead: (rexSGX.Stage.Total() - rexNat.Stage.Total()) / rexNat.Stage.Total(),
			msOverhead:  (msSGX.Stage.Total() - msNat.Stage.Total()) / msNat.Stage.Total(),
		}
	}
	small := get(false)
	large := get(true)
	if small.rexOverhead >= small.msOverhead {
		t.Fatalf("REX overhead %.2f should be far below MS %.2f", small.rexOverhead, small.msOverhead)
	}
	if small.rexOverhead > 0.35 {
		t.Fatalf("REX SGX overhead too high: %.2f (paper: <=0.17)", small.rexOverhead)
	}
	if large.msOverhead <= small.msOverhead {
		t.Fatalf("EPC overcommit should raise MS overhead: %.2f -> %.2f", small.msOverhead, large.msOverhead)
	}
}

// TestSpeedupShape runs the (memoized) multi-user scenario and checks the
// Table III invariant: REX reaches model sharing's final error faster in
// every setup.
func TestSpeedupShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scenario run")
	}
	p := Params{Seed: 1}.defaults()
	pairs, err := multiUserRuns(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 4 {
		t.Fatalf("%d setups", len(pairs))
	}
	for _, pr := range pairs {
		target := pr.MS.FinalRMSE + 0.005
		msT, msOK := pr.MS.TimeToRMSE(target)
		rexT, rexOK := pr.REX.TimeToRMSE(target)
		if !msOK || !rexOK {
			t.Fatalf("%v: target %.3f not reached (ms %v rex %v)", pr.Setup, target, msOK, rexOK)
		}
		if rexT >= msT {
			t.Fatalf("%v: REX %.1fs not faster than MS %.1fs", pr.Setup, rexT, msT)
		}
		// Network volume: the paper's two-orders-of-magnitude claim holds
		// at full scale; at test scale the models are smaller, so require
		// one order.
		if pr.REX.BytesPerNode*10 > pr.MS.BytesPerNode {
			t.Fatalf("%v: volume gap too small: %.0f vs %.0f", pr.Setup, pr.REX.BytesPerNode, pr.MS.BytesPerNode)
		}
	}
}

func algoOf(s string) gossip.Algo {
	a, err := gossip.ParseAlgo(s)
	if err != nil {
		panic(err)
	}
	return a
}

func modeOf(s string) core.Mode {
	m, err := core.ParseMode(s)
	if err != nil {
		panic(err)
	}
	return m
}
