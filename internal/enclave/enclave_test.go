package enclave

import "testing"

func newEnc(sgx bool) *Enclave {
	return New(DefaultParams(), sgx)
}

func TestNativeChargesNothing(t *testing.T) {
	e := newEnc(false)
	e.SetHeap(500 << 20) // even far beyond EPC
	if f := e.ComputeFactor(); f != 1.0 {
		t.Fatalf("native compute factor %v", f)
	}
	if f := e.MemFactor(); f != 1.0 {
		t.Fatalf("native mem factor %v", f)
	}
	if d := e.ECall(1000); d != 0 {
		t.Fatalf("native ecall cost %v", d)
	}
	if d := e.OCall(1000); d != 0 {
		t.Fatalf("native ocall cost %v", d)
	}
	if d := e.CryptoTime(1 << 20); d != 0 {
		t.Fatalf("native crypto cost %v", d)
	}
	if d := e.NativeAllocTime(1 << 20); d == 0 {
		t.Fatal("native alloc penalty missing (the §IV-D sampling effect)")
	}
}

func TestSGXFactorsMonotonicInResidency(t *testing.T) {
	e := newEnc(true)
	params := DefaultParams()
	prev := 0.0
	for _, frac := range []float64{0.1, 0.5, 0.9, 1.5, 2.5} {
		e.SetHeap(int64(frac * float64(params.EPCBytes)))
		f := e.ComputeFactor()
		if f <= prev {
			t.Fatalf("factor not increasing: %.3f at residency %.1f", f, frac)
		}
		if f <= 1 {
			t.Fatalf("SGX factor %.3f not above 1", f)
		}
		prev = f
	}
}

func TestOvercommitPenalty(t *testing.T) {
	e := newEnc(true)
	p := DefaultParams()
	e.SetHeap(p.EPCBytes) // exactly full
	atLimit := e.ComputeFactor()
	e.SetHeap(2 * p.EPCBytes) // 2x overcommit, the Fig 7 regime
	over := e.ComputeFactor()
	if over-atLimit < p.PagingOverhead*0.9 {
		t.Fatalf("paging penalty too small: %.3f -> %.3f", atLimit, over)
	}
}

func TestMemFactorExceedsComputeFactor(t *testing.T) {
	e := newEnc(true)
	e.SetHeap(10 << 20)
	if e.MemFactor() <= e.ComputeFactor() {
		t.Fatal("memory-bound surcharge missing")
	}
}

func TestTransitionAccounting(t *testing.T) {
	e := newEnc(true)
	d1 := e.ECall(100)
	d2 := e.OCall(200)
	if d1 <= 0 || d2 <= d1 {
		t.Fatalf("transition costs: ecall %v ocall %v", d1, d2)
	}
}

func TestCryptoAccounting(t *testing.T) {
	e := newEnc(true)
	if e.CryptoTime(1<<20) <= e.CryptoTime(1<<10) || e.CryptoTime(1<<10) <= 0 {
		t.Fatal("crypto cost not positive and growing with bytes")
	}
}

func TestHeapAccounting(t *testing.T) {
	e := newEnc(true)
	epc := DefaultParams().EPCBytes
	for _, heap := range []int64{0, epc / 4, epc, 3 * epc} {
		e.SetHeap(heap)
		if got, want := e.Residency(), float64(heap)/float64(epc); got != want {
			t.Fatalf("heap %d: residency %v, want %v", heap, got, want)
		}
	}
}

func TestComputeTimeScales(t *testing.T) {
	e := newEnc(true)
	e.SetHeap(0)
	if f := e.ComputeFactor(); f <= 1 {
		t.Fatalf("SGX compute not slower at zero residency: factor %v", f)
	}
}

func TestSGXAllocPenaltyZero(t *testing.T) {
	e := newEnc(true)
	if d := e.NativeAllocTime(1 << 20); d != 0 {
		t.Fatalf("enclave charged native alloc penalty %v", d)
	}
}

func TestZeroEPCDefaulted(t *testing.T) {
	e := New(Params{}, true)
	e.SetHeap(DefaultParams().EPCBytes)
	if r := e.Residency(); r != 1 {
		t.Fatalf("zero EPC not defaulted: residency %v at the default EPC", r)
	}
}
