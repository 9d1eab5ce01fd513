package vec

import (
	"fmt"
	"os"
)

// impl is one complete kernel set for the dispatched element-wise entry
// points. Every slot carries full semantics — any length, including the
// remainder elements past the last full vector block (implementations
// handle tails in Go, so the assembly only ever sees whole blocks).
// A single reduction (Dot) is deliberately absent: the bit-identity
// contract keeps its serial accumulator chain scalar on every arch. Many
// independent reductions (scoreRows) are here: a lane per row keeps each
// row's chain serial.
type impl struct {
	name      string
	add       func(dst, src []float32)
	axpy      func(alpha float32, x, y []float32)
	scale     func(alpha float32, x []float32)
	zero      func(x []float32)
	sgd10     func(x, y []float32, rating, mean, bu, bi, lr, reg float32) (float32, float32)
	adam      func(w, g, m, v []float32, lr, wd float64, b1, b2 float32, bc1, bc2, eps float64)
	scoreRows func(out, x, rec []float32, stride int, base float32)
}

// goImpl is the portable reference implementation — the loops every other
// implementation must reproduce float-op for float-op.
var goImpl = impl{
	name:      "go",
	add:       addGo,
	axpy:      axpyGo,
	scale:     scaleGo,
	zero:      zeroGo,
	sgd10:     fusedSGDStep10,
	adam:      adamStepGo,
	scoreRows: scoreRowsGo,
}

// available lists the kernel sets usable on this machine, best first and
// "go" always last. Populated at init from archImpls (per-GOARCH, after
// CPU-feature detection).
var available []impl

// active is the kernel set the exported entry points dispatch to. It is
// written once at init (plus by Use, a test/bench knob) and read on every
// kernel call; concurrent Use during kernel calls is not supported.
var active impl

func init() {
	available = append(archImpls(), goImpl)
	active = available[0]
	// REX_VEC forces a dispatch path: auto (default) picks the best
	// available, any implementation name pins that path for the process.
	// Forcing a path the hardware lacks is a configuration error — fall
	// back to auto loudly rather than crash or silently mislabel results.
	if v := os.Getenv("REX_VEC"); v != "" && v != "auto" {
		if err := Use(v); err != nil {
			fmt.Fprintf(os.Stderr, "vec: ignoring REX_VEC=%q: %v (using %q)\n", v, err, active.name)
		}
	}
}

// Impl reports the name of the kernel implementation currently dispatched
// to: "avx2", "sse2", "neon" or "go".
func Impl() string { return active.name }

// Available lists the implementations usable on this machine, best first;
// "go" is always present and always last.
func Available() []string {
	names := make([]string, len(available))
	for i := range available {
		names[i] = available[i].name
	}
	return names
}

// Use forces dispatch onto the named implementation for the whole process.
// It exists for tests and benchmarks (the REX_VEC env knob calls it); it
// must not race kernel calls from other goroutines.
func Use(name string) error {
	for _, im := range available {
		if im.name == name {
			active = im
			return nil
		}
	}
	return fmt.Errorf("vec: implementation %q not available on this machine (have %v)", name, Available())
}
