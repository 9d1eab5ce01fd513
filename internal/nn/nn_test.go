package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"rex/internal/dataset"
	"rex/internal/model"
	"rex/internal/movielens"
)

func tinyConfig() Config {
	return Config{
		NumUsers: 12, NumItems: 30, EmbDim: 4,
		Hidden: []int{8, 6}, DropoutEmb: 0, DropoutHidden: 0,
		LearningRate: 1e-2, WeightDecay: 0, BatchSize: 4, Seed: 3,
	}
}

func TestMatMulShapes(t *testing.T) {
	a := NewMat(2, 3)
	b := NewMat(3, 4)
	for i := range a.V {
		a.V[i] = float32(i + 1)
	}
	for i := range b.V {
		b.V[i] = float32(i + 1)
	}
	c := MatMul(a, b)
	if c.R != 2 || c.C != 4 {
		t.Fatalf("shape %dx%d", c.R, c.C)
	}
	// c[0][0] = 1*1 + 2*5 + 3*9 = 38
	if c.At(0, 0) != 38 {
		t.Fatalf("c00 = %v", c.At(0, 0))
	}
}

func TestMatMulTransposedAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMat(3, 5)
	b := NewMat(3, 4)
	for i := range a.V {
		a.V[i] = float32(rng.NormFloat64())
	}
	for i := range b.V {
		b.V[i] = float32(rng.NormFloat64())
	}
	// aᵀ b via explicit transpose must equal MatMulATransposed.
	at := NewMat(5, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := MatMul(at, b)
	got := MatMulATransposed(a, b)
	for i := range want.V {
		if math.Abs(float64(want.V[i]-got.V[i])) > 1e-5 {
			t.Fatalf("AT mismatch at %d: %v vs %v", i, got.V[i], want.V[i])
		}
	}
	// a bᵀ similarly.
	c := NewMat(4, 5)
	for i := range c.V {
		c.V[i] = float32(rng.NormFloat64())
	}
	ct := NewMat(5, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			ct.Set(j, i, c.At(i, j))
		}
	}
	wantBT := MatMul(a, &Mat{R: 5, C: 4, V: ct.V})
	gotBT := MatMulBTransposed(a, c)
	for i := range wantBT.V {
		if math.Abs(float64(wantBT.V[i]-gotBT.V[i])) > 1e-5 {
			t.Fatalf("BT mismatch at %d", i)
		}
	}
}

// TestLinearGradientCheck verifies backprop against numerical gradients —
// the canonical correctness test for a hand-written layer stack.
func TestLinearGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(3, 2, rng)
	x := NewMat(2, 3)
	for i := range x.V {
		x.V[i] = float32(rng.NormFloat64())
	}
	loss := func() float64 {
		y := l.Forward(x, false)
		var s float64
		for _, v := range y.V {
			s += float64(v) * float64(v)
		}
		return s
	}
	// Analytic gradient of sum(y^2): dL/dy = 2y.
	y := l.Forward(x, false)
	dy := NewMat(y.R, y.C)
	for i := range y.V {
		dy.V[i] = 2 * y.V[i]
	}
	l.W.ZeroGrad()
	l.B.ZeroGrad()
	dx := l.Backward(dy)

	const eps = 1e-3
	check := func(name string, w []float32, g []float32, idx int) {
		orig := w[idx]
		w[idx] = orig + eps
		lp := loss()
		w[idx] = orig - eps
		lm := loss()
		w[idx] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(g[idx])) > 1e-2*(1+math.Abs(num)) {
			t.Fatalf("%s[%d]: numeric %.5f analytic %.5f", name, idx, num, g[idx])
		}
	}
	for i := 0; i < len(l.W.W); i += 2 {
		check("W", l.W.W, l.W.G, i)
	}
	for i := range l.B.W {
		check("B", l.B.W, l.B.G, i)
	}
	// Input gradient check.
	for i := range x.V {
		orig := x.V[i]
		x.V[i] = orig + eps
		lp := loss()
		x.V[i] = orig - eps
		lm := loss()
		x.V[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(dx.V[i])) > 1e-2*(1+math.Abs(num)) {
			t.Fatalf("dx[%d]: numeric %.5f analytic %.5f", i, num, dx.V[i])
		}
	}
}

func TestReLU(t *testing.T) {
	r := &ReLU{}
	x := &Mat{R: 1, C: 4, V: []float32{-1, 0, 2, -3}}
	y := r.Forward(x, true)
	want := []float32{0, 0, 2, 0}
	for i := range want {
		if y.V[i] != want[i] {
			t.Fatalf("relu[%d] = %v", i, y.V[i])
		}
	}
	dy := &Mat{R: 1, C: 4, V: []float32{1, 1, 1, 1}}
	dx := r.Backward(dy)
	wantG := []float32{0, 0, 1, 0}
	for i := range wantG {
		if dx.V[i] != wantG[i] {
			t.Fatalf("relu grad[%d] = %v", i, dx.V[i])
		}
	}
}

func TestDropoutEvalIdentity(t *testing.T) {
	d := NewDropout(0.5, rand.New(rand.NewSource(3)))
	x := &Mat{R: 1, C: 8, V: []float32{1, 2, 3, 4, 5, 6, 7, 8}}
	y := d.Forward(x, false)
	for i := range x.V {
		if y.V[i] != x.V[i] {
			t.Fatal("dropout changed values in eval mode")
		}
	}
}

func TestDropoutTrainScales(t *testing.T) {
	d := NewDropout(0.5, rand.New(rand.NewSource(4)))
	x := NewMat(1, 10000)
	for i := range x.V {
		x.V[i] = 1
	}
	y := d.Forward(x, true)
	var sum float64
	zeros := 0
	for _, v := range y.V {
		sum += float64(v)
		if v == 0 {
			zeros++
		}
	}
	if zeros < 4000 || zeros > 6000 {
		t.Fatalf("dropped %d of 10000 at p=0.5", zeros)
	}
	// Inverted dropout preserves the expectation.
	if mean := sum / 10000; mean < 0.9 || mean > 1.1 {
		t.Fatalf("post-dropout mean %v, want ~1", mean)
	}
}

func TestDropoutBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("p=1 accepted")
		}
	}()
	NewDropout(1.0, rand.New(rand.NewSource(5)))
}

func TestEmbeddingLookupAndAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := NewEmbeddingPair(4, 5, 3, rng)
	out := e.Lookup([]uint32{1, 2}, []uint32{0, 4})
	if out.R != 2 || out.C != 6 {
		t.Fatalf("lookup shape %dx%d", out.R, out.C)
	}
	// Row 0 first half must equal user 1's embedding.
	for d := 0; d < 3; d++ {
		if out.At(0, d) != e.Users.W[1*3+d] {
			t.Fatal("user embedding mismatch")
		}
		if out.At(0, 3+d) != e.Items.W[0*3+d] {
			t.Fatal("item embedding mismatch")
		}
	}
	g := NewMat(2, 6)
	for i := range g.V {
		g.V[i] = 1
	}
	e.Users.ZeroGrad()
	e.Items.ZeroGrad()
	e.Accumulate(g)
	if e.Users.G[1*3] != 1 || e.Items.G[4*3+2] != 1 {
		t.Fatal("gradient not scattered")
	}
	if e.Users.G[0] != 0 {
		t.Fatal("gradient leaked to untouched row")
	}
}

func TestAdamStepMovesParams(t *testing.T) {
	a := NewAdam(0.1, 0)
	p := newParam("p", 3)
	p.ZeroGrad() // gradients materialize lazily
	p.W[0] = 1
	p.G[0] = 1 // positive gradient: value must decrease
	a.Step([]*Param{p})
	if p.W[0] >= 1 {
		t.Fatalf("param did not descend: %v", p.W[0])
	}
	if p.W[1] != 0 {
		t.Fatal("zero-grad param moved")
	}
}

func TestAdamWeightDecayShrinks(t *testing.T) {
	a := NewAdam(0.1, 0.5)
	p := newParam("p", 1)
	p.W[0] = 10
	for i := 0; i < 20; i++ {
		p.ZeroGrad()
		a.Step([]*Param{p})
	}
	if p.W[0] >= 10 {
		t.Fatal("weight decay did not shrink the weight")
	}
}

func TestNetTrainReducesError(t *testing.T) {
	spec := movielens.Latest().Scaled(0.03)
	spec.Seed = 9
	ds := movielens.Generate(spec)
	cfg := DefaultConfig(ds.NumUsers, ds.NumItems)
	cfg.EmbDim = 6
	cfg.Hidden = []int{16, 8}
	cfg.LearningRate = 5e-3
	cfg.BatchSize = 16
	net := NewNet(cfg)
	rng := rand.New(rand.NewSource(10))
	tr, te := ds.SplitPerUser(0.7, rng)
	before := model.RMSE(net, te.Ratings)
	net.Train(tr.Ratings, 400, rng)
	after := model.RMSE(net, te.Ratings)
	if after >= before {
		t.Fatalf("DNN did not learn: %.4f -> %.4f", before, after)
	}
	if after > 1.6 {
		t.Fatalf("DNN RMSE %.4f too high after training", after)
	}
}

func TestNetParamCountPaperScale(t *testing.T) {
	// §IV-A3b: 610 users, 9000 items, k=20 with the default hidden stack
	// lands within 3% of the paper's 215,001 parameters.
	cfg := DefaultConfig(610, 9000)
	n := NewNet(cfg)
	got := n.ParamCount()
	if got < 209000 || got < 215001*97/100 || got > 215001*103/100 {
		t.Fatalf("param count %d, want within 3%% of 215001", got)
	}
}

func TestNetMarshalRoundtrip(t *testing.T) {
	cfg := tinyConfig()
	n := NewNet(cfg)
	rng := rand.New(rand.NewSource(11))
	data := []dataset.Rating{{User: 1, Item: 2, Value: 4}, {User: 3, Item: 7, Value: 2}}
	n.Train(data, 10, rng)
	buf, err := n.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != n.WireSize() {
		t.Fatalf("WireSize %d != %d", n.WireSize(), len(buf))
	}
	n2 := NewNet(cfg)
	if err := n2.Unmarshal(buf); err != nil {
		t.Fatal(err)
	}
	if n.Predict(1, 2) != n2.Predict(1, 2) {
		t.Fatal("prediction differs after roundtrip")
	}
}

func TestNetUnmarshalErrors(t *testing.T) {
	n := NewNet(tinyConfig())
	if err := n.Unmarshal([]byte{0}); err == nil {
		t.Fatal("short buffer accepted")
	}
	buf, _ := n.Marshal()
	bad := append([]byte(nil), buf...)
	bad[0] ^= 0xFF
	if err := n.Unmarshal(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	if err := n.Unmarshal(buf[:len(buf)-4]); err == nil {
		t.Fatal("truncated accepted")
	}
	other := tinyConfig()
	other.Hidden = []int{8}
	n2 := NewNet(other)
	buf2, _ := n2.Marshal()
	if err := n.Unmarshal(buf2); err == nil {
		t.Fatal("architecture mismatch accepted")
	}
}

func TestNetMergeAverages(t *testing.T) {
	cfg := tinyConfig()
	a, b := NewNet(cfg), NewNet(cfg)
	// Same seed → identical initial params; diverge them.
	rng := rand.New(rand.NewSource(12))
	a.Train([]dataset.Rating{{User: 0, Item: 0, Value: 5}}, 50, rng)
	b.Train([]dataset.Rating{{User: 1, Item: 1, Value: 1}}, 50, rng)
	wantFirst := 0.5*float64(a.params[0].W[0]) + 0.5*float64(b.params[0].W[0])
	a.MergeWeighted(0.5, []model.Weighted{{M: b, W: 0.5}})
	if got := float64(a.params[0].W[0]); math.Abs(got-wantFirst) > 1e-6 {
		t.Fatalf("merge average %v, want %v", got, wantFirst)
	}
}

func TestNetIdenticalSeedsIdenticalParams(t *testing.T) {
	cfg := tinyConfig()
	a, b := NewNet(cfg), NewNet(cfg)
	for i := range a.params {
		for j := range a.params[i].W {
			if a.params[i].W[j] != b.params[i].W[j] {
				t.Fatal("same-seed networks differ at init")
			}
		}
	}
}

func TestNetCloneIndependent(t *testing.T) {
	n := NewNet(tinyConfig())
	c := n.Clone().(*Net)
	c.params[0].W[0] += 1
	if n.params[0].W[0] == c.params[0].W[0] {
		t.Fatal("clone aliases parameters")
	}
}

func TestNetPredictOutOfVocab(t *testing.T) {
	n := NewNet(tinyConfig())
	if p := n.Predict(9999, 0); p != 3.5 {
		t.Fatalf("OOV fallback %v", p)
	}
	// An untrained in-vocabulary prediction stays a plausible rating.
	if p := n.Predict(0, 0); p < -10 || p > 10 {
		t.Fatalf("implausible prediction %v", p)
	}
}

func TestNetWireSizeProperty(t *testing.T) {
	f := func(seedRaw uint8) bool {
		cfg := tinyConfig()
		cfg.Seed = int64(seedRaw)
		n := NewNet(cfg)
		buf, err := n.Marshal()
		return err == nil && len(buf) == n.WireSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}
