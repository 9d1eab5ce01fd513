package vec

import (
	"flag"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// The kernels promise bit-identity with their naive reference loops. Every
// property test below runs the reference next to the kernel and asserts
// float32 equality by bits, not tolerance. Dispatched kernels run the full
// matrix of {every implementation available on this machine} × {lengths
// 0..70, crossing every SSE2/AVX2/NEON remainder boundary} × {slice
// offsets 0..5, so vector blocks start at unaligned addresses}; guard
// sentinels around each window catch any out-of-bounds store by the
// assembly block/tail split.

func randSlice(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return s
}

func bitsEq(a, b float32) bool { return math.Float32bits(a) == math.Float32bits(b) }

func requireBitsEq(t *testing.T, name string, n int, got, want []float32) {
	t.Helper()
	for i := range want {
		if !bitsEq(got[i], want[i]) {
			t.Fatalf("%s n=%d index %d: got %v want %v", name, n, i, got[i], want[i])
		}
	}
}

// forEachImpl runs fn once per implementation available on this machine,
// with dispatch pinned to it for the duration of the subtest.
func forEachImpl(t *testing.T, fn func(t *testing.T)) {
	for _, im := range available {
		im := im
		t.Run(im.name, func(t *testing.T) {
			prev := active
			active = im
			defer func() { active = prev }()
			fn(t)
		})
	}
}

const guard = 8 // sentinel elements on each side of every test window

const sentinel = float32(-987654.25)

// window is an n-element slice carved out of a larger buffer at a chosen
// element offset (so SIMD blocks start at 4-, 8-, 12-… byte alignments,
// not just 16/32), with sentinel guards on both sides.
type window struct {
	base []float32
	off  int
	n    int
}

func newWindow(rng *rand.Rand, n, off int) window {
	w := window{base: make([]float32, guard+off+n+guard), off: guard + off, n: n}
	for i := range w.base {
		w.base[i] = sentinel
	}
	s := w.s()
	for i := range s {
		s[i] = float32(rng.NormFloat64())
	}
	return w
}

func (w window) s() []float32 { return w.base[w.off : w.off+w.n] }

func (w window) checkGuards(t *testing.T, name string) {
	t.Helper()
	for i := 0; i < w.off; i++ {
		if !bitsEq(w.base[i], sentinel) {
			t.Fatalf("%s n=%d: clobbered guard before window (index %d)", name, w.n, i-w.off)
		}
	}
	for i := w.off + w.n; i < len(w.base); i++ {
		if !bitsEq(w.base[i], sentinel) {
			t.Fatalf("%s n=%d: clobbered guard after window (index %d)", name, w.n, i-w.off-w.n)
		}
	}
}

var testOffsets = []int{0, 1, 2, 3, 5}

func TestDotMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 70; n++ {
		a, b := randSlice(rng, n), randSlice(rng, n)
		var want float32
		for i := 0; i < n; i++ {
			want += float32(a[i] * b[i])
		}
		if got := Dot(a, b); !bitsEq(got, want) {
			t.Fatalf("Dot n=%d: got %v want %v", n, got, want)
		}
	}
}

func TestAddMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	forEachImpl(t, func(t *testing.T) {
		for n := 0; n <= 70; n++ {
			for _, off := range testOffsets {
				dw, sw := newWindow(rng, n, off), newWindow(rng, n, off)
				dst, src := dw.s(), sw.s()
				want := append([]float32(nil), dst...)
				for i := range want {
					want[i] += src[i]
				}
				Add(dst, src)
				requireBitsEq(t, "Add", n, dst, want)
				dw.checkGuards(t, "Add.dst")
				sw.checkGuards(t, "Add.src")
			}
		}
	})
}

func TestAddScaledMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	forEachImpl(t, func(t *testing.T) {
		for n := 0; n <= 70; n++ {
			for _, off := range testOffsets {
				alpha := float32(rng.NormFloat64())
				dw, sw := newWindow(rng, n, off), newWindow(rng, n, off)
				dst, src := dw.s(), sw.s()
				want := append([]float32(nil), dst...)
				srcOrig := append([]float32(nil), src...)
				for i := range want {
					want[i] += float32(alpha * src[i])
				}
				add2 := append([]float32(nil), dst...)
				AddScaled(dst, src, alpha)
				requireBitsEq(t, "AddScaled", n, dst, want)
				requireBitsEq(t, "AddScaled.src", n, src, srcOrig)
				dw.checkGuards(t, "AddScaled.dst")
				sw.checkGuards(t, "AddScaled.src")
				// Axpy is the same kernel under its BLAS name.
				Axpy(alpha, srcOrig, add2)
				requireBitsEq(t, "Axpy", n, add2, want)
			}
		}
	})
}

func TestScaleAndZero(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	forEachImpl(t, func(t *testing.T) {
		for n := 0; n <= 70; n++ {
			for _, off := range testOffsets {
				alpha := float32(rng.NormFloat64())
				w := newWindow(rng, n, off)
				x := w.s()
				want := append([]float32(nil), x...)
				for i := range want {
					want[i] *= alpha
				}
				Scale(alpha, x)
				requireBitsEq(t, "Scale", n, x, want)
				w.checkGuards(t, "Scale")
				Zero(x)
				for i := range x {
					if x[i] != 0 {
						t.Fatalf("Zero n=%d left %v at %d", n, x[i], i)
					}
				}
				w.checkGuards(t, "Zero")
			}
		}
	})
}

// TestAxpyAliased pins in-place accumulation, dst==src: the reference loop
// reads y[i] before writing it, so aliasing is well defined and the
// element-wise kernels must honor it.
func TestAxpyAliased(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	forEachImpl(t, func(t *testing.T) {
		for n := 0; n <= 70; n++ {
			for _, off := range testOffsets {
				alpha := float32(rng.NormFloat64())
				w := newWindow(rng, n, off)
				x := w.s()
				want := append([]float32(nil), x...)
				for i := range want {
					want[i] += float32(alpha * want[i])
				}
				Axpy(alpha, x, x)
				requireBitsEq(t, "Axpy.aliased", n, x, want)
				w.checkGuards(t, "Axpy.aliased")
			}
		}
	})
}

func TestSGDStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for n := 0; n <= 70; n++ {
		e := float32(rng.NormFloat64())
		lr, reg := float32(0.005), float32(0.1)
		x, y := randSlice(rng, n), randSlice(rng, n)
		wx := append([]float32(nil), x...)
		wy := append([]float32(nil), y...)
		for d := 0; d < n; d++ {
			xd, yd := wx[d], wy[d]
			wx[d] += float32(lr * (float32(e*yd) - float32(reg*xd)))
			wy[d] += float32(lr * (float32(e*xd) - float32(reg*yd)))
		}
		SGDStep(x, y, e, lr, reg)
		requireBitsEq(t, "SGDStep.x", n, x, wx)
		requireBitsEq(t, "SGDStep.y", n, y, wy)
	}
}

func adamReference(w, g, m, v []float32, lr, wd float64, b1, b2 float32, bc1, bc2, eps float64) {
	for i, gi := range g {
		if wd != 0 {
			w[i] -= float32(lr * wd * float64(w[i]))
		}
		m[i] = float32(b1*m[i]) + float32((1-b1)*gi)
		v[i] = float32(b2*v[i]) + float32((1-b2)*gi*gi)
		mhat := float64(m[i]) / bc1
		vhat := float64(v[i]) / bc2
		w[i] -= float32(lr * mhat / (math.Sqrt(vhat) + eps))
	}
}

func TestAdamStepMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lr, wd, eps := 1e-4, 1e-5, 1e-8
	b1, b2 := float32(0.9), float32(0.999)
	forEachImpl(t, func(t *testing.T) {
		for n := 0; n <= 70; n++ {
			for _, useWD := range []float64{wd, 0} {
				for _, off := range testOffsets {
					ws, gs := newWindow(rng, n, off), newWindow(rng, n, off)
					ms, vs := newWindow(rng, n, off), newWindow(rng, n, off)
					w, g, m, v := ws.s(), gs.s(), ms.s(), vs.s()
					for i := range v {
						v[i] = float32(rng.Float64()) // v must stay non-negative
					}
					t_ := 1 + rng.Intn(50)
					bc1 := 1 - math.Pow(float64(b1), float64(t_))
					bc2 := 1 - math.Pow(float64(b2), float64(t_))
					ww := append([]float32(nil), w...)
					wm := append([]float32(nil), m...)
					wv := append([]float32(nil), v...)
					adamReference(ww, g, wm, wv, lr, useWD, b1, b2, bc1, bc2, eps)
					AdamStep(w, g, m, v, lr, useWD, b1, b2, bc1, bc2, eps)
					requireBitsEq(t, "AdamStep.w", n, w, ww)
					requireBitsEq(t, "AdamStep.m", n, m, wm)
					requireBitsEq(t, "AdamStep.v", n, v, wv)
					for _, pair := range []struct {
						name string
						win  window
					}{{"w", ws}, {"g", gs}, {"m", ms}, {"v", vs}} {
						pair.win.checkGuards(t, "AdamStep."+pair.name)
					}
				}
			}
		}
	})
}

// TestLongerSourcesIgnored pins the length contract: the first argument
// defines the operation length and trailing source elements are untouched.
func TestLongerSourcesIgnored(t *testing.T) {
	forEachImpl(t, func(t *testing.T) {
		dst := []float32{1, 2}
		src := []float32{10, 20, 30}
		AddScaled(dst, src, 1)
		if dst[0] != 11 || dst[1] != 22 {
			t.Fatalf("AddScaled wrong: %v", dst)
		}
		if src[2] != 30 {
			t.Fatalf("AddScaled touched excess src: %v", src)
		}
		if got := Dot([]float32{1, 1}, []float32{3, 4, 5}); got != 7 {
			t.Fatalf("Dot used excess elements: %v", got)
		}
	})
}

func TestShortSourcePanics(t *testing.T) {
	forEachImpl(t, func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("AddScaled with short src must panic")
			}
		}()
		AddScaled(make([]float32, 8), make([]float32, 4), 1)
	})
}

// --- benchmarks: per-kernel numbers for whoever works on a kernel; run
// them under REX_VEC=go and without it for the dispatch speed-up.
// TestSIMDPaysForItself holds the two stream kernels to a ratio floor ---

func benchSlices(n int) ([]float32, []float32) {
	rng := rand.New(rand.NewSource(9))
	return randSlice(rng, n), randSlice(rng, n)
}

func BenchmarkDot(b *testing.B) {
	for _, n := range []int{10, 64, 1024} {
		a, c := benchSlices(n)
		b.Run(sizeName(n), func(b *testing.B) {
			var s float32
			for i := 0; i < b.N; i++ {
				s += Dot(a, c)
			}
			sink = s
		})
	}
}

func benchAddScaled(n int) func(*testing.B) {
	a, c := benchSlices(n)
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			AddScaled(a, c, 0.5)
		}
	}
}

func BenchmarkAddScaled(b *testing.B) {
	for _, n := range []int{10, 64, 1024} {
		b.Run(sizeName(n), benchAddScaled(n))
	}
}

func benchScale(n int) func(*testing.B) {
	a, _ := benchSlices(n)
	return func(b *testing.B) {
		// alpha=-1 keeps magnitudes constant across iterations: a
		// decaying alpha would drive the buffer into subnormals and
		// measure FP-assist stalls instead of the kernel.
		for i := 0; i < b.N; i++ {
			Scale(-1, a)
		}
	}
}

func BenchmarkScale(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(sizeName(n), benchScale(n))
	}
}

// TestSIMDPaysForItself holds the dispatched kernels to a speed-up over
// the portable loops on the two pure stream kernels and on ScoreRows, where
// the gap is wide (4-7x with AVX2, 3-4x with SSE2 on a shared 2-vCPU box;
// ScoreRows 4-5x with AVX2) and a 2x floor leaves room for noise: both
// sides are timed in this process, back to back, and each side is the
// minimum of three runs, so the machine cancels out. A kernel the
// dispatched tier runs through the reference loop (ScoreRows under SSE2
// and NEON) is skipped. The 1.1-1.6x kernels (fused SGD step, Adam) cannot
// be held by a wall clock; run their benchmarks under REX_VEC=go and
// without it.
func TestSIMDPaysForItself(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	auto := Impl()
	if auto == "go" {
		t.Skip("portable kernels dispatched; nothing to compare")
	}
	defer func() {
		if err := Use(auto); err != nil {
			t.Fatal(err)
		}
	}()
	// 30 ms a run keeps the twelve runs near half a second in any build.
	benchtime := flag.Lookup("test.benchtime").Value
	prev := benchtime.String()
	defer benchtime.Set(prev)
	if err := benchtime.Set("30ms"); err != nil {
		t.Fatal(err)
	}
	best := func(impl string, body func(*testing.B)) float64 {
		if err := Use(impl); err != nil {
			t.Fatal(err)
		}
		min := math.Inf(1)
		for rep := 0; rep < 3; rep++ {
			r := testing.Benchmark(body)
			min = math.Min(min, float64(r.T.Nanoseconds())/float64(r.N))
		}
		return min
	}
	portableRows := reflect.ValueOf(active.scoreRows).Pointer() == reflect.ValueOf(scoreRowsGo).Pointer()
	for _, k := range []struct {
		name     string
		body     func(*testing.B)
		portable bool // the dispatched tier runs the reference loop
	}{
		{"AddScaled/n=1024", benchAddScaled(1024), false},
		{"Scale/n=1024", benchScale(1024), false},
		{"ScoreRows/n=4096", benchScoreRows(4096), portableRows},
	} {
		if k.portable {
			t.Logf("%s: %s runs the reference loop; nothing to compare", k.name, auto)
			continue
		}
		slow, fast := best("go", k.body), best(auto, k.body)
		t.Logf("%s: go %.1f ns/op, %s %.1f ns/op, %.1fx", k.name, slow, auto, fast, slow/fast)
		if slow < 2*fast {
			t.Errorf("%s: %s is %.2fx the portable loop, want >= 2x", k.name, auto, slow/fast)
		}
	}
}

func BenchmarkAdamStep(b *testing.B) {
	for _, n := range []int{64, 1024} {
		w, g := benchSlices(n)
		m := make([]float32, n)
		v := make([]float32, n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				AdamStep(w, g, m, v, 1e-4, 1e-5, 0.9, 0.999, 0.1, 0.001, 1e-8)
			}
		})
	}
}

// benchScoreRows scores n packed K=10 records for one query, the shape of
// an MF model's item table scored for one held user.
func benchScoreRows(n int) func(*testing.B) {
	const k = 10
	rng := rand.New(rand.NewSource(9))
	x, rec := randSlice(rng, k), randSlice(rng, n*(k+1))
	out := make([]float32, n)
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ScoreRows(out, x, rec, k+1, 3.5)
		}
	}
}

func BenchmarkScoreRows(b *testing.B) { benchScoreRows(4096)(b) }

var sink float32

func sizeName(n int) string {
	switch n {
	case 10:
		return "n=10"
	case 64:
		return "n=64"
	case 1024:
		return "n=1024"
	}
	return "n"
}
