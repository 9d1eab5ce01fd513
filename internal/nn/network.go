package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"rex/internal/dataset"
	"rex/internal/model"
)

// Config describes the DNN recommender of §IV-A3b: user/item embeddings of
// dimension EmbDim feed four hidden linear+ReLU layers with dropout (0.02
// after the embeddings, 0.15 after the first two hidden layers) and a final
// one-unit linear layer under a closing ReLU. With the paper's 610 users,
// 9000 items and EmbDim 20, DefaultHidden yields ~218k parameters,
// matching the paper's reported 215,001 in order of magnitude.
type Config struct {
	NumUsers, NumItems int
	EmbDim             int     // paper: 20
	Hidden             []int   // paper: 4 hidden layers
	DropoutEmb         float64 // paper: 0.02
	DropoutHidden      float64 // paper: 0.15 (first two hidden layers)
	LearningRate       float64 // paper: 1e-4
	WeightDecay        float64 // paper: 1e-5
	BatchSize          int
	Seed               int64
}

// DefaultHidden is the hidden stack used when Config.Hidden is nil.
var DefaultHidden = []int{160, 96, 32, 16}

// DefaultConfig returns the paper's DNN hyperparameters for a given id
// space.
func DefaultConfig(numUsers, numItems int) Config {
	return Config{
		NumUsers: numUsers, NumItems: numItems,
		EmbDim: 20, Hidden: append([]int(nil), DefaultHidden...),
		DropoutEmb: 0.02, DropoutHidden: 0.15,
		LearningRate: 1e-4, WeightDecay: 1e-5,
		BatchSize: 32, Seed: 11,
	}
}

// Net is the DNN recommender. It implements model.Model so the REX
// protocol can drive it interchangeably with matrix factorization.
type Net struct {
	cfg    Config
	emb    *EmbeddingPair
	layers []Layer
	opt    *Adam
	params []*Param
	rng    *rand.Rand
}

var _ model.Model = (*Net)(nil)

// NewNet builds the network. Parameter initialization is deterministic in
// cfg.Seed so all nodes can start from an identical model, as enclaves with
// equal measurements do.
func NewNet(cfg Config) *Net {
	if cfg.Hidden == nil {
		cfg.Hidden = append([]int(nil), DefaultHidden...)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := &Net{cfg: cfg, rng: rng}
	n.emb = NewEmbeddingPair(cfg.NumUsers, cfg.NumItems, cfg.EmbDim, rng)
	in := 2 * cfg.EmbDim
	n.layers = append(n.layers, NewDropout(cfg.DropoutEmb, rng))
	for i, h := range cfg.Hidden {
		n.layers = append(n.layers, NewLinear(in, h, rng), &ReLU{})
		if i < 2 && cfg.DropoutHidden > 0 {
			n.layers = append(n.layers, NewDropout(cfg.DropoutHidden, rng))
		}
		in = h
	}
	n.layers = append(n.layers, NewLinear(in, 1, rng), &ReLU{}) // final ReLU output layer
	n.params = append(n.params, n.emb.Params()...)
	for _, l := range n.layers {
		n.params = append(n.params, l.Params()...)
	}
	n.opt = NewAdam(cfg.LearningRate, cfg.WeightDecay)
	return n
}

// ParamCount implements model.Model.
func (n *Net) ParamCount() int {
	total := 0
	for _, p := range n.params {
		total += len(p.W)
	}
	return total
}

// WireSize implements model.Model: the exact Marshal output length.
func (n *Net) WireSize() int {
	size := 8
	for _, p := range n.params {
		size += 4 + 4*len(p.W)
	}
	return size
}

func (n *Net) forward(users, items []uint32, train bool) *Mat {
	x := n.emb.Lookup(users, items)
	for _, l := range n.layers {
		x = l.Forward(x, train)
	}
	return x
}

// Train implements model.Model: `steps` minibatches of cfg.BatchSize
// uniformly sampled ratings, MSE loss, one Adam step per batch.
func (n *Net) Train(data []dataset.Rating, steps int, rng *rand.Rand) {
	if len(data) == 0 || steps <= 0 {
		return
	}
	b := n.cfg.BatchSize
	users := make([]uint32, b)
	items := make([]uint32, b)
	target := make([]float32, b)
	for s := 0; s < steps; s++ {
		for i := 0; i < b; i++ {
			r := data[rng.Intn(len(data))]
			users[i], items[i], target[i] = r.User, r.Item, r.Value
		}
		for _, p := range n.params {
			p.ZeroGrad()
		}
		out := n.forward(users, items, true)
		// dMSE/dpred = 2(pred − y)/B
		grad := NewMat(b, 1)
		inv := float32(2.0 / float64(b))
		for i := 0; i < b; i++ {
			grad.Set(i, 0, inv*(out.At(i, 0)-target[i]))
		}
		d := grad
		for i := len(n.layers) - 1; i >= 0; i-- {
			d = n.layers[i].Backward(d)
		}
		n.emb.Accumulate(d)
		n.opt.Step(n.params)
	}
}

// Predict implements model.Model (eval mode, single example).
func (n *Net) Predict(user, item uint32) float32 {
	if int(user) >= n.cfg.NumUsers || int(item) >= n.cfg.NumItems {
		return 3.5 // out-of-vocabulary fallback
	}
	out := n.forward([]uint32{user}, []uint32{item}, false)
	return out.At(0, 0)
}

// PredictBatch implements model.BatchPredictor: one forward pass over the
// in-vocabulary examples of the batch instead of one per example — the
// batched matmuls are what make the test stage cheap for the DNN. Each
// row of a forward pass is computed independently (per-row axpy/dot over
// that row only), so out[j] is bit-identical to Predict(users[j],
// items[j]).
func (n *Net) PredictBatch(users, items []uint32, out []float32) {
	if len(users) != len(items) || len(users) != len(out) {
		panic("nn: predict batch length mismatch")
	}
	if len(out) == 0 {
		return
	}
	vu := make([]uint32, 0, len(out))
	vi := make([]uint32, 0, len(out))
	pos := make([]int, 0, len(out))
	for j := range out {
		if int(users[j]) >= n.cfg.NumUsers || int(items[j]) >= n.cfg.NumItems {
			out[j] = 3.5 // out-of-vocabulary fallback
			continue
		}
		vu = append(vu, users[j])
		vi = append(vi, items[j])
		pos = append(pos, j)
	}
	if len(vu) == 0 {
		return
	}
	y := n.forward(vu, vi, false)
	for r, j := range pos {
		out[j] = y.At(r, 0)
	}
}

// MergeWeighted implements model.Model: a dense weighted average of every
// parameter tensor. All REX DNN nodes share the architecture (enforced by
// attestation), so tensors align one-to-one. Optimizer moments are reset
// after a merge, since they describe gradients of the pre-merge weights.
func (n *Net) MergeWeighted(selfW float64, others []model.Weighted) {
	type src struct {
		n *Net
		w float64
	}
	var srcs []src
	var wsum float64
	srcs = append(srcs, src{n, selfW})
	wsum = selfW
	for _, o := range others {
		on, ok := o.M.(*Net)
		if !ok {
			continue
		}
		srcs = append(srcs, src{on, o.W})
		wsum += o.W
	}
	if wsum == 0 {
		return
	}
	for pi, p := range n.params {
		acc := make([]float64, len(p.W))
		for _, s := range srcs {
			sp := s.n.params[pi]
			for i, v := range sp.W {
				// float64(...) bars FMA contraction on arm64 so a merge
				// of given models accumulates the same bits on every
				// arch (see internal/vec's package doc).
				acc[i] += float64(s.w * float64(v))
			}
		}
		for i := range p.W {
			p.W[i] = float32(acc[i] / wsum)
		}
	}
	n.opt.Reset()
}

// Clone implements model.Model.
func (n *Net) Clone() model.Model {
	c := NewNet(n.cfg)
	for i, p := range n.params {
		copy(c.params[i].W, p.W)
	}
	return c
}

// CopyFrom implements model.Copier: it overwrites n with src's parameters
// in place, leaving n indistinguishable from src.Clone() — weights copied,
// optimizer state cleared, dropout rng rewound to the seed — while reusing
// n's tensors. Share paths rotate pooled payload nets through this instead
// of allocating a full Clone per epoch.
func (n *Net) CopyFrom(src model.Model) bool {
	o, ok := src.(*Net)
	if !ok || len(o.params) != len(n.params) {
		return false
	}
	for i, p := range o.params {
		if len(p.W) != len(n.params[i].W) {
			return false
		}
	}
	for i, p := range o.params {
		copy(n.params[i].W, p.W)
	}
	n.opt.Reset()
	n.rng.Seed(n.cfg.Seed)
	return true
}

const netMagic = uint32(0x5245584e) // "REXN"

// Marshal implements model.Model: magic, param tensor count, then each
// tensor as (len, float32 data). Architecture compatibility is assumed
// (enclave attestation guarantees identical code and config).
func (n *Net) Marshal() ([]byte, error) { return n.MarshalAppend(nil) }

// MarshalAppend implements model.AppendMarshaler: the canonical Marshal
// bytes appended to dst, growing it at most once, so share paths can
// serialize the (large, fixed-size) parameter block into a reused buffer.
func (n *Net) MarshalAppend(dst []byte) ([]byte, error) {
	need := n.WireSize()
	start := len(dst)
	if cap(dst)-start < need {
		grown := make([]byte, start+need)
		copy(grown, dst)
		dst = grown
	} else {
		dst = dst[:start+need]
	}
	buf := dst[start:]
	binary.LittleEndian.PutUint32(buf, netMagic)
	binary.LittleEndian.PutUint32(buf[4:], uint32(len(n.params)))
	off := 8
	for _, p := range n.params {
		binary.LittleEndian.PutUint32(buf[off:], uint32(len(p.W)))
		off += 4
		for _, v := range p.W {
			binary.LittleEndian.PutUint32(buf[off:], math.Float32bits(v))
			off += 4
		}
	}
	return dst, nil
}

// Unmarshal implements model.Model.
func (n *Net) Unmarshal(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("nn: buffer too short (%d bytes)", len(b))
	}
	if binary.LittleEndian.Uint32(b) != netMagic {
		return fmt.Errorf("nn: bad magic %#x", binary.LittleEndian.Uint32(b))
	}
	count := int(binary.LittleEndian.Uint32(b[4:]))
	if count != len(n.params) {
		return fmt.Errorf("nn: serialized %d tensors, model has %d", count, len(n.params))
	}
	off := 8
	for _, p := range n.params {
		if off+4 > len(b) {
			return fmt.Errorf("nn: truncated tensor header at %d", off)
		}
		ln := int(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if ln != len(p.W) {
			return fmt.Errorf("nn: tensor %s has %d values, serialized %d", p.Name, len(p.W), ln)
		}
		if off+4*ln > len(b) {
			return fmt.Errorf("nn: truncated tensor %s", p.Name)
		}
		for i := 0; i < ln; i++ {
			p.W[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[off:]))
			off += 4
		}
	}
	if off != len(b) {
		return fmt.Errorf("nn: %d trailing bytes", len(b)-off)
	}
	n.opt.Reset()
	return nil
}
