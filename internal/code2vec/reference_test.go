package code2vec

import (
	"math"

	"neurovec/internal/nn"
)

// refState is refForward's record for refBackward.
type refState struct {
	ctxs  []Context
	c     [][]float64 // concatenated context inputs, 3d each
	h     [][]float64 // tanh(W c + b), OutDim each
	alpha []float64
}

// refForward is the embedder's forward in its plain form: every context's
// concatenated input [tok(L); path(P); tok(R)] is multiplied by the whole
// projection, summing bias then the 3*EmbedDim products in index order. The
// prefix-sharing kernel must reproduce it bit for bit.
func refForward(m *Model, ctxs []Context) ([]float64, *refState) {
	d := m.Cfg.EmbedDim
	out := m.Cfg.OutDim
	st := &refState{ctxs: ctxs}
	vec := make([]float64, out)
	if len(ctxs) == 0 {
		return vec, st
	}
	n := len(ctxs)
	st.c = make([][]float64, n)
	st.h = make([][]float64, n)
	scores := make([]float64, n)
	for i, cx := range ctxs {
		c := make([]float64, 3*d)
		copy(c[0:d], m.Tok.W[int(cx.Left)*d:(int(cx.Left)+1)*d])
		copy(c[d:2*d], m.Path.W[int(cx.Path)*d:(int(cx.Path)+1)*d])
		copy(c[2*d:3*d], m.Tok.W[int(cx.Right)*d:(int(cx.Right)+1)*d])
		st.c[i] = c

		h := make([]float64, out)
		for o := 0; o < out; o++ {
			row := m.W.W[o*3*d : (o+1)*3*d]
			s := m.B.W[o]
			for k, cv := range c {
				s += row[k] * cv
			}
			h[o] = math.Tanh(s)
		}
		st.h[i] = h

		sc := 0.0
		for o := 0; o < out; o++ {
			sc += m.Attn.W[o] * h[o]
		}
		scores[i] = sc
	}
	st.alpha = nn.Softmax(scores)
	for i := range ctxs {
		a := st.alpha[i]
		for o := 0; o < out; o++ {
			vec[o] += a * st.h[i][o]
		}
	}
	return vec, st
}

// refBackward accumulates refForward's parameter gradients one context at a
// time: the full OutDim x 3*EmbedDim outer products per context, with no
// grouping of repeated rows.
func refBackward(m *Model, st *refState, dvec []float64) {
	if len(st.ctxs) == 0 {
		return
	}
	d := m.Cfg.EmbedDim
	out := m.Cfg.OutDim
	n := len(st.ctxs)

	dAlpha := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for o := 0; o < out; o++ {
			s += st.h[i][o] * dvec[o]
		}
		dAlpha[i] = s
	}
	dot := 0.0
	for i := 0; i < n; i++ {
		dot += st.alpha[i] * dAlpha[i]
	}
	for i := 0; i < n; i++ {
		dScore := st.alpha[i] * (dAlpha[i] - dot)
		for o := 0; o < out; o++ {
			m.Attn.G[o] += dScore * st.h[i][o]
		}
		cx := st.ctxs[i]
		c := st.c[i]
		dc := make([]float64, 3*d)
		for o := 0; o < out; o++ {
			dh := st.alpha[i]*dvec[o] + dScore*m.Attn.W[o]
			dpre := dh * (1 - st.h[i][o]*st.h[i][o])
			if dpre == 0 {
				continue
			}
			row := m.W.W[o*3*d : (o+1)*3*d]
			grow := m.W.G[o*3*d : (o+1)*3*d]
			m.B.G[o] += dpre
			for k := 0; k < 3*d; k++ {
				grow[k] += dpre * c[k]
				dc[k] += dpre * row[k]
			}
		}
		lg := m.Tok.G[int(cx.Left)*d : (int(cx.Left)+1)*d]
		pg := m.Path.G[int(cx.Path)*d : (int(cx.Path)+1)*d]
		rg := m.Tok.G[int(cx.Right)*d : (int(cx.Right)+1)*d]
		for k := 0; k < d; k++ {
			lg[k] += dc[k]
			pg[k] += dc[d+k]
			rg[k] += dc[2*d+k]
		}
	}
}
