package code2vec

import (
	"math"
	"math/rand"
	"testing"

	"neurovec/internal/dataset"
	"neurovec/internal/lang"
)

// corpusBags returns the context bag of every loop (outer and inner) in the
// generated corpus (seed 1, extended grammar) and the TSVC kernels.
func corpusBags(t *testing.T, cfg Config) [][]Context {
	t.Helper()
	var srcs []string
	for _, s := range dataset.Generate(dataset.GenConfig{N: 96, Seed: 1, Extended: true}).Samples {
		srcs = append(srcs, s.Source)
	}
	for _, b := range dataset.TSVC() {
		srcs = append(srcs, b.Source)
	}
	var bags [][]Context
	for _, src := range srcs {
		p, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		for _, f := range p.Funcs {
			for _, l := range f.Loops() {
				bags = append(bags, ExtractContexts(l, cfg))
			}
		}
	}
	return bags
}

// TestForwardMatchesReference pins the prefix-sharing kernel to the plain
// concatenated product bit for bit, through both ForwardInto (one Scratch
// reused across every bag) and Forward.
func TestForwardMatchesReference(t *testing.T) {
	cfg := DefaultConfig()
	m := NewModel(cfg)
	bags := corpusBags(t, cfg)
	if len(bags) < 100 {
		t.Fatalf("only %d loop bags", len(bags))
	}
	var s Scratch
	dst := make([]float64, cfg.OutDim)
	for b, ctxs := range bags {
		want, _ := refForward(m, ctxs)
		into := m.ForwardInto(dst, ctxs, &s)
		got, _ := m.Forward(ctxs)
		for o := range want {
			w := math.Float64bits(want[o])
			if math.Float64bits(into[o]) != w || math.Float64bits(got[o]) != w {
				t.Fatalf("bag %d (%d contexts) out[%d]: ForwardInto %v, Forward %v, reference %v",
					b, len(ctxs), o, into[o], got[o], want[o])
			}
		}
	}
}

// repeatBag is a bag built to exercise the grouped backward: repeated
// contexts, Left == Right, tokens that appear on both sides, and paths
// shared between different token pairs.
var repeatBag = []Context{
	{Left: 3, Path: 10, Right: 7},
	{Left: 7, Path: 11, Right: 3},
	{Left: 1, Path: 10, Right: 2},
	{Left: 3, Path: 10, Right: 7}, // repeat of the first
	{Left: 5, Path: 12, Right: 5}, // Left == Right
	{Left: 3, Path: 11, Right: 3}, // Left == Right on a shared path
	{Left: 2, Path: 10, Right: 1}, // shared path, tokens swapped
	{Left: 5, Path: 12, Right: 5}, // repeat of Left == Right
}

// TestBackwardMatchesReference checks the grouped gradients against the
// per-context reference: only the summation order differs, so each
// parameter's gradient agrees to within 1e-12 relative error.
func TestBackwardMatchesReference(t *testing.T) {
	cfg := DefaultConfig()
	corpus := corpusBags(t, cfg)
	bags := map[string][]Context{
		"repeats":       repeatBag,
		"corpus":        corpus[len(corpus)/2],
		"corpus+repeat": append(append([]Context{}, corpus[0]...), corpus[0]...),
	}
	for name, ctxs := range bags {
		ref, got := NewModel(cfg), NewModel(cfg)
		rng := rand.New(rand.NewSource(7))
		dvec := make([]float64, cfg.OutDim)
		for o := range dvec {
			dvec[o] = rng.NormFloat64()
		}
		// Two passes, so gradients accumulate onto non-zero values too.
		for pass := 0; pass < 2; pass++ {
			_, rst := refForward(ref, ctxs)
			refBackward(ref, rst, dvec)
			_, st := got.Forward(ctxs)
			got.Backward(st, dvec)
		}
		// Relative error per parameter, normwise: the largest entry
		// difference over the largest reference entry. Entrywise ratios are
		// unbounded where a sum cancels to almost zero.
		rp, gp := ref.Params(), got.Params()
		for p := range rp {
			scale, diff := 0.0, 0.0
			for i, want := range rp[p].G {
				scale = math.Max(scale, math.Abs(want))
				diff = math.Max(diff, math.Abs(gp[p].G[i]-want))
			}
			if scale == 0 {
				t.Fatalf("%s: %s received no gradient", name, rp[p].Name)
			}
			if diff > 1e-12*scale {
				t.Errorf("%s: %s gradients differ from the reference by %.3g relative, want <= 1e-12",
					name, rp[p].Name, diff/scale)
			}
		}
	}
}
