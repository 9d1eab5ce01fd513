// Package enclave simulates the SGX execution environment REX runs in
// (paper §II-C): the trusted/untrusted split with ecall/ocall transition
// costs, in-enclave compute overhead from hardware memory encryption, and
// the enclave page cache (EPC) paging penalty once the trusted working set
// exceeds the usable EPC (93.5 MiB on the paper's machines, §IV-D). The
// same API in "native" mode charges nothing except the on-demand page
// allocation cost the paper observed making *native* data sampling
// slightly slower than the enclave build (§IV-D).
package enclave

import "time"

// Params are the cost-model constants. Defaults are calibrated so the
// SGX-vs-native overhead ratios land in the ranges Table IV reports
// (REX 5–17%, model sharing 51–135%); `rexbench -exp table4` prints the
// reproduced ratios and TestSGXExperimentShape holds their shape.
type Params struct {
	// EPCBytes is the usable enclave page cache. The paper's machines
	// expose 93.5 MiB of the 128 MiB EPC to enclaves (§IV-D).
	EPCBytes int64
	// TransitionTime is the cost of one enclave boundary crossing
	// (ecall or ocall): context switch, TLB flush, register scrubbing.
	TransitionTime time.Duration
	// CopyPerByte is the marshalling cost for argument/buffer copies
	// across the boundary.
	CopyPerByte time.Duration
	// CryptoPerByte is the AES-GCM cost for traffic protection applied to
	// every byte entering or leaving the enclave over the network.
	CryptoPerByte time.Duration
	// ComputeOverhead is the baseline fractional in-enclave slowdown for
	// compute-bound work (memory-encryption engine latency on the hot set).
	ComputeOverhead float64
	// ResidencyPressure adds overhead proportional to how much of the EPC
	// the trusted heap occupies (cache/EPC contention below the limit):
	// factor += ResidencyPressure * min(r, 1) with r = heap/EPC. Table IV
	// shows overhead growing with RAM even inside the EPC.
	ResidencyPressure float64
	// PagingOverhead is the additional fractional slowdown per unit of
	// EPC overcommit: factor += PagingOverhead*(r-1) once the residency
	// ratio r exceeds 1 (EWB page swaps, §IV-D).
	PagingOverhead float64
	// MemBoundOverhead is extra slowdown applied only to memory-bound
	// stages (model merging, serialization), which stress the
	// memory-encryption engine far more than cache-friendly SGD (§IV-D:
	// "the sharing step presents the biggest difference ... because it
	// simultaneously involves I/O, cryptographic operations and intensive
	// memory usage").
	MemBoundOverhead float64
	// NativeAllocPerByte models the cost of on-demand page faults in the
	// *native* build when fresh buffers are allocated mid-epoch; enclave
	// memory is all committed at initialization, which is why the paper
	// measured REX's sharing step slightly faster under SGX (§IV-D).
	NativeAllocPerByte time.Duration
}

// DefaultParams returns the calibrated cost constants.
func DefaultParams() Params {
	return Params{
		EPCBytes:           93*1024*1024 + 512*1024, // 93.5 MiB
		TransitionTime:     8 * time.Microsecond,
		CopyPerByte:        1 * time.Nanosecond, // ~1 GB/s boundary copies
		CryptoPerByte:      1 * time.Nanosecond, // ~1 GB/s AES-GCM
		ComputeOverhead:    0.03,
		ResidencyPressure:  0.35,
		PagingOverhead:     0.80,
		MemBoundOverhead:   0.90,
		NativeAllocPerByte: 1 * time.Nanosecond, // on-demand page faults ~1 GB/s
	}
}

// Enclave tracks one node's trusted environment: its trusted heap, which
// sets the EPC residency every overhead factor depends on. In native mode
// (SGX == false) it represents the paper's "Native" baseline build: same
// code, no protection, no overhead except on-demand allocation.
type Enclave struct {
	params Params
	sgx    bool
	heap   int64 // trusted heap bytes
}

// New creates an enclave (or native pseudo-enclave) with the given cost
// constants.
func New(params Params, sgx bool) *Enclave {
	if params.EPCBytes <= 0 {
		params.EPCBytes = DefaultParams().EPCBytes
	}
	return &Enclave{params: params, sgx: sgx}
}

// SetHeap sets the trusted heap to an absolute value (the simulator
// recomputes model+store residency each epoch).
func (e *Enclave) SetHeap(n int64) { e.heap = n }

// Residency returns heap/EPC; values above 1 mean the EPC is
// overcommitted and paging costs apply (Fig 7's regime).
func (e *Enclave) Residency() float64 {
	return float64(e.heap) / float64(e.params.EPCBytes)
}

// ComputeFactor returns the multiplicative slowdown for compute-bound
// trusted work at the current residency: 1.0 native; inside the EPC it
// grows with occupancy (cache/EPC contention); beyond it, paging dominates.
func (e *Enclave) ComputeFactor() float64 {
	if !e.sgx {
		return 1.0
	}
	f := 1 + e.params.ComputeOverhead
	r := e.Residency()
	if r > 1 {
		f += e.params.ResidencyPressure + e.params.PagingOverhead*(r-1)
	} else {
		f += e.params.ResidencyPressure * r
	}
	return f
}

// MemFactor returns the slowdown for memory-bound trusted work (merging,
// serialization): the compute factor plus the memory-bound surcharge.
func (e *Enclave) MemFactor() float64 {
	if !e.sgx {
		return 1.0
	}
	return e.ComputeFactor() + e.params.MemBoundOverhead
}

// ECall charges one untrusted→trusted transition carrying n argument
// bytes and returns its cost. Native builds cross no boundary.
func (e *Enclave) ECall(n int) time.Duration {
	if !e.sgx {
		return 0
	}
	return e.params.TransitionTime + time.Duration(n)*e.params.CopyPerByte
}

// OCall charges one trusted→untrusted transition carrying n bytes.
func (e *Enclave) OCall(n int) time.Duration {
	if !e.sgx {
		return 0
	}
	return e.params.TransitionTime + time.Duration(n)*e.params.CopyPerByte
}

// CryptoTime charges AES-GCM protection of n network bytes (both sealing
// outbound and opening inbound traffic). Native builds exchange plaintext.
func (e *Enclave) CryptoTime(n int) time.Duration {
	if !e.sgx {
		return 0
	}
	return time.Duration(n) * e.params.CryptoPerByte
}

// NativeAllocTime charges the native build's on-demand page allocation for
// n freshly allocated bytes during the sharing step; zero under SGX, where
// all pages were committed at enclave initialization (§IV-D).
func (e *Enclave) NativeAllocTime(n int) time.Duration {
	if e.sgx {
		return 0
	}
	return time.Duration(n) * e.params.NativeAllocPerByte
}
