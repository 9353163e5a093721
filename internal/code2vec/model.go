package code2vec

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"neurovec/internal/nn"
)

// Model is the attention encoder: hashed embeddings for terminals and paths,
// a projection to the code-vector width, and a learned attention vector that
// aggregates contexts. All parameters are trained by gradients arriving at
// the output vector (end-to-end with the RL loss).
type Model struct {
	Cfg  Config
	Tok  *nn.Param // TokenVocab x EmbedDim
	Path *nn.Param // PathVocab x EmbedDim
	W    *nn.Param // OutDim x 3*EmbedDim
	B    *nn.Param // OutDim
	Attn *nn.Param // OutDim

	grads gradScratch // Backward's buffers; Backward writes G, so it is never concurrent
}

// NewModel initialises the embedder.
func NewModel(cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := cfg.EmbedDim
	scaleEmb := 1.0 / math.Sqrt(float64(d))
	scaleW := math.Sqrt(2.0 / float64(3*d+cfg.OutDim))
	norm := func(scale float64) func(int) float64 {
		return func(int) float64 { return rng.NormFloat64() * scale }
	}
	return &Model{
		Cfg:  cfg,
		Tok:  nn.NewParamInit("c2v.tok", cfg.TokenVocab*d, norm(scaleEmb)),
		Path: nn.NewParamInit("c2v.path", cfg.PathVocab*d, norm(scaleEmb)),
		W:    nn.NewParamInit("c2v.W", cfg.OutDim*3*d, norm(scaleW)),
		B:    nn.NewParam("c2v.b", cfg.OutDim),
		Attn: nn.NewParamInit("c2v.attn", cfg.OutDim, norm(0.1)),
	}
}

// Params returns the trainable parameters.
func (m *Model) Params() []*nn.Param {
	return []*nn.Param{m.Tok, m.Path, m.W, m.B, m.Attn}
}

// Dim returns the code-vector width.
func (m *Model) Dim() int { return m.Cfg.OutDim }

// State caches a forward pass for the matching Backward call: the bag and
// the buffers its forward filled (projections h and attention weights).
type State struct {
	ctxs []Context
	s    Scratch
}

// Forward embeds a context bag into a code vector and keeps the State that
// Backward needs. It is ForwardInto's kernel run into buffers the State
// owns, so the vector is bit-identical to ForwardInto's. An empty bag yields
// the zero vector (e.g. a degenerate loop with no terminals).
func (m *Model) Forward(ctxs []Context) ([]float64, *State) {
	st := &State{ctxs: ctxs}
	return m.ForwardInto(make([]float64, m.Cfg.OutDim), ctxs, &st.s), st
}

// Scratch holds the reusable buffers ForwardInto needs. A Scratch belongs to
// one caller at a time; pool or confine it. The zero value is ready to use —
// buffers grow on demand and are retained across calls.
type Scratch struct {
	h      []float64 // all squashed projections, n*OutDim
	scores []float64 // attention logits, n
	alpha  []float64 // attention weights, n
	order  []uint64  // (Left, Path, index) keys, sorted
	left   []float64 // bias + left segment for the current Left
	lp     []float64 // left prefix + path segment for the current (Left, Path)
}

func growF(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// ForwardInto is the embedder's inference forward: it writes the code vector
// into dst (which must have length Cfg.OutDim) and performs zero heap
// allocations once s's buffers have grown to the bag size.
//
// Each projection output sums the bias, then the left-token, path and
// right-token segments of its W row, each in index order — the order of the
// plain product of W with the concatenated [tok(L); path(P); tok(R)]. The
// partial sum after the left segment depends only on Left and the one after
// the path segment only on (Left, Path), so contexts are visited in
// (Left, Path) order and each partial sum is formed once per distinct key
// instead of once per context. The result is bit-identical to the plain
// product. h lands at each context's original index, so the attention
// softmax and the pooling keep their order too.
func (m *Model) ForwardInto(dst []float64, ctxs []Context, s *Scratch) []float64 {
	out := m.Cfg.OutDim
	if len(dst) != out {
		panic(&nn.ShapeError{Op: "code2vec dst", Got: len(dst), Want: out})
	}
	for o := range dst {
		dst[o] = 0
	}
	if len(ctxs) == 0 {
		return dst
	}

	n := len(ctxs)
	s.h = growF(s.h, n*out)
	s.scores = growF(s.scores, n)
	s.alpha = growF(s.alpha, n)
	m.project(s, ctxs)
	for i := range ctxs {
		h := s.h[i*out : (i+1)*out]
		sc := 0.0
		for o, v := range h {
			sc += m.Attn.W[o] * v
		}
		s.scores[i] = sc
	}
	nn.SoftmaxTo(s.alpha, s.scores)
	for i := range ctxs {
		a := s.alpha[i]
		h := s.h[i*out : (i+1)*out]
		for o := range dst {
			dst[o] += a * h[o]
		}
	}
	return dst
}

// project writes h_i = tanh(W [tok(L_i); path(P_i); tok(R_i)] + b) for every
// context into s.h, sharing the left and (left, path) partial sums.
func (m *Model) project(s *Scratch, ctxs []Context) {
	d := m.Cfg.EmbedDim
	out := m.Cfg.OutDim
	w := 3 * d
	s.left = growF(s.left, out)
	s.lp = growF(s.lp, out)

	// Keys pack (Left, Path, index); the index bits always survive, so a
	// vocabulary too wide to pack only weakens the grouping, never the
	// result: a run is cut wherever the visited context's Left or Path
	// differs from the previous one's.
	ib := bits.Len(uint(len(ctxs)))
	pb := ib + bits.Len(uint(m.Cfg.PathVocab))
	s.order = s.order[:0]
	for i, cx := range ctxs {
		s.order = append(s.order, uint64(cx.Left)<<pb|uint64(cx.Path)<<ib|uint64(i))
	}
	slices.Sort(s.order)

	mask := uint64(1)<<ib - 1
	var prev Context
	for j, key := range s.order {
		i := int(key & mask)
		cx := ctxs[i]
		newLeft := j == 0 || cx.Left != prev.Left
		if newLeft {
			tok := m.Tok.W[int(cx.Left)*d : (int(cx.Left)+1)*d]
			for o := range s.left {
				row := m.W.W[o*w : o*w+d]
				sum := m.B.W[o]
				for k, v := range tok {
					sum += row[k] * v
				}
				s.left[o] = sum
			}
		}
		if newLeft || cx.Path != prev.Path {
			path := m.Path.W[int(cx.Path)*d : (int(cx.Path)+1)*d]
			for o := range s.lp {
				row := m.W.W[o*w+d : o*w+2*d]
				sum := s.left[o]
				for k, v := range path {
					sum += row[k] * v
				}
				s.lp[o] = sum
			}
		}
		tok := m.Tok.W[int(cx.Right)*d : (int(cx.Right)+1)*d]
		h := s.h[i*out : (i+1)*out]
		for o := range h {
			row := m.W.W[o*w+2*d : (o+1)*w]
			sum := s.lp[o]
			for k, v := range tok {
				sum += row[k] * v
			}
			h[o] = math.Tanh(sum)
		}
		prev = cx
	}
}

// gradScratch holds Backward's buffers, grown on demand and kept.
type gradScratch struct {
	dAlpha []float64 // dLoss/dalpha_i, n
	dpre   []float64 // dLoss/d(pre-tanh projection), n*OutDim
	sum    []float64 // dpre summed per distinct embedding row, OutDim each
	slot   []int32   // vocabulary row -> 1 + its index in rows; 0 when unseen
	rows   []int     // distinct embedding rows of one segment, first-seen order
}

// Backward accumulates parameter gradients given dLoss/dCodeVector. Like any
// writer of the gradients it must not run concurrently on one model.
func (m *Model) Backward(st *State, dvec []float64) {
	n := len(st.ctxs)
	if n == 0 {
		return
	}
	out := m.Cfg.OutDim
	h, alpha := st.s.h, st.s.alpha
	g := &m.grads
	g.dAlpha = growF(g.dAlpha, n)
	g.dpre = growF(g.dpre, n*out)

	// v = sum_i alpha_i h_i with alpha = softmax(attn . h_i).
	// dAlpha_i = h_i . dvec ; dScore via softmax Jacobian;
	// dh_i = alpha_i dvec + dScore_i * attn.
	for i := range n {
		s := 0.0
		for o, v := range h[i*out : (i+1)*out] {
			s += v * dvec[o]
		}
		g.dAlpha[i] = s
	}
	dot := 0.0
	for i := range n {
		dot += alpha[i] * g.dAlpha[i]
	}
	for i := range n {
		dScore := alpha[i] * (g.dAlpha[i] - dot)
		dpre := g.dpre[i*out : (i+1)*out]
		for o, v := range h[i*out : (i+1)*out] {
			m.Attn.G[o] += dScore * v
			dh := alpha[i]*dvec[o] + dScore*m.Attn.W[o]
			dpre[o] = dh * (1 - v*v)
			m.B.G[o] += dpre[o]
		}
	}

	// The pre-activation is linear in each segment's embedding row, so each
	// segment's W and embedding gradients are taken once per distinct row
	// from the dpre summed over the contexts that read that row.
	m.segmentGrads(st.ctxs, 0, m.Tok)
	m.segmentGrads(st.ctxs, 1, m.Path)
	m.segmentGrads(st.ctxs, 2, m.Tok)
}

// row returns the embedding row that projection segment seg (0 left token,
// 1 path, 2 right token) reads for this context.
func (cx Context) row(seg int) int {
	switch seg {
	case 0:
		return int(cx.Left)
	case 1:
		return int(cx.Path)
	}
	return int(cx.Right)
}

// segmentGrads adds the gradients of projection segment seg (0 left token,
// 1 path, 2 right token), whose input rows come from table: for every
// distinct row r with summed dpre D_r, W's segment columns gain D_r ⊗ e_r
// and e_r's gradient gains W_segᵀ D_r.
func (m *Model) segmentGrads(ctxs []Context, seg int, table *nn.Param) {
	d := m.Cfg.EmbedDim
	out := m.Cfg.OutDim
	w := 3 * d
	g := &m.grads
	if vocab := len(table.W) / d; len(g.slot) < vocab {
		g.slot = make([]int32, vocab)
	}
	g.sum = growF(g.sum, len(ctxs)*out)
	g.rows = g.rows[:0]
	for i, cx := range ctxs {
		r := cx.row(seg)
		dpre := g.dpre[i*out : (i+1)*out]
		if k := int(g.slot[r]); k != 0 {
			sum := g.sum[(k-1)*out : k*out]
			for o, v := range dpre {
				sum[o] += v
			}
			continue
		}
		g.rows = append(g.rows, r)
		g.slot[r] = int32(len(g.rows))
		copy(g.sum[(len(g.rows)-1)*out:len(g.rows)*out], dpre)
	}
	for k, r := range g.rows {
		g.slot[r] = 0
		emb := table.W[r*d : (r+1)*d]
		eg := table.G[r*d : (r+1)*d]
		for o, dv := range g.sum[k*out : (k+1)*out] {
			if dv == 0 {
				continue
			}
			off := o*w + seg*d
			row := m.W.W[off : off+d]
			wg := m.W.G[off : off+d]
			for j, e := range emb {
				wg[j] += dv * e
				eg[j] += dv * row[j]
			}
		}
	}
}
