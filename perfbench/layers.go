package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"neurovec/internal/api"
	"neurovec/internal/code2vec"
	"neurovec/internal/core"
	"neurovec/internal/costmodel"
	"neurovec/internal/extractor"
	"neurovec/internal/lang"
	"neurovec/internal/lang/sema"
	"neurovec/internal/lower"
	"neurovec/internal/sim"
	"neurovec/internal/vectorizer"
)

// layerRounds is how many times the traced run times every file; each
// metric reports the median round.
const layerRounds = 5

// predictUS times one uncached in-process PredictLoops call on f, in µs.
func (c *checker) predictUS(f file) (float64, error) {
	t0 := time.Now()
	if _, err := c.fw.PredictLoops(context.Background(), f.source, f.params, core.WithSourceName(f.name)); err != nil {
		return 0, err
	}
	return us(time.Since(t0)), nil
}

// stageClock accumulates one round's time per stage.
type stageClock map[string]time.Duration

func (s stageClock) since(stage string, t0 time.Time) time.Time {
	now := time.Now()
	s[stage] += now.Sub(t0)
	return now
}

// timeLayers re-runs the inference pipeline on files one public function
// at a time, exactly as core.PredictLoops composes them for the default
// rl policy, and times each call from outside. Per file it also times one
// uncached core.PredictLoops, so core.unattributed_us is what the stage
// calls leave unexplained. The embedder runs with the checkpoint's
// weights, and every stage's decisions are checked against PredictLoops.
func timeLayers(chk *checker, files []file) (map[string]float64, error) {
	embed, err := checkpointEmbedder(chk.fw)
	if err != nil {
		return nil, err
	}
	agent := chk.fw.Agent()
	cfg := chk.fw.Cfg
	var ex code2vec.Extractor
	var scratch code2vec.Scratch
	vec := make([]float64, embed.Dim())

	rounds := make([]stageClock, layerRounds)
	var loops, simCalls int
	for r := range rounds {
		runtime.GC()
		clk := stageClock{}
		rounds[r] = clk
		for _, f := range files {
			t := time.Now()
			prog, err := lang.ParseFile(f.name, f.source)
			if err != nil {
				return nil, err
			}
			t = clk.since("parse", t)
			info := sema.Check(f.name, prog)
			t = clk.since("sema", t)
			infos := extractor.Loops(prog)
			ids := api.LoopIDs(prog)
			t = clk.since("extract", t)
			opts := cfg.Lower
			if f.params != nil {
				opts.ParamValues = f.params
			}
			opts.Facts = info.Facts
			irp, err := lower.Program(prog, opts)
			if err != nil {
				return nil, err
			}
			t = clk.since("lower", t)
			base := costmodel.Plans(irp, cfg.Arch)
			t = clk.since("costmodel", t)
			sim.Program(irp, base, cfg.Sim)
			t = clk.since("sim", t)

			single := clonePlans(base)
			combined := clonePlans(base)
			var decisions []extractor.Decision
			var got []api.Decision
			for _, li := range infos {
				loop := irp.FindLoop(li.Label)
				if loop == nil {
					return nil, fmt.Errorf("%s: loop %s missing from IR", f.name, li.Label)
				}
				t = time.Now()
				embed.ForwardInto(vec, ex.Extract(li.Outermost, cfg.Embed), &scratch)
				t = clk.since("embed", t)
				vf, ifc := agent.PredictObs(vec)
				t = clk.since("forward", t)
				plan := vectorizer.New(loop, cfg.Arch, vf, ifc)
				t = clk.since("plan", t)
				prev, had := single[li.Label]
				single[li.Label] = plan
				cycles := sim.Program(irp, single, cfg.Sim).Cycles
				clk.since("sim", t)
				if had {
					single[li.Label] = prev
				} else {
					delete(single, li.Label)
				}
				combined[li.Label] = plan
				decisions = append(decisions, extractor.Decision{Label: li.Label, VF: vf, IF: ifc})
				got = append(got, api.Decision{Loop: ids[li.Label], VF: vf, IF: ifc, Cycles: cycles})
			}
			t = time.Now()
			total := sim.Program(irp, combined, cfg.Sim).Cycles
			t = clk.since("sim", t)
			annotated := extractor.Annotate(prog, decisions)
			t = clk.since("annotate", t)

			if _, err := chk.fw.PredictLoops(context.Background(), f.source, f.params, core.WithSourceName(f.name)); err != nil {
				return nil, err
			}
			clk.since("predict", t)

			if r == 0 {
				loops += len(infos)
				simCalls += len(infos) + 2
				err := chk.compare(f, &api.CompileResponse{
					File: f.name, ModelVersion: chk.version, Annotated: annotated,
					Loops: got, PredictedCycles: total,
				})
				if err != nil {
					return nil, fmt.Errorf("stage-by-stage pipeline disagrees with PredictLoops: %v", err)
				}
			}
		}
	}

	perFile := func(stage string) float64 { return medianRound(rounds, stage, len(files)) }
	perLoop := func(stage string) float64 { return medianRound(rounds, stage, loops) }
	out := map[string]float64{
		"lang.parse_us":         perFile("parse"),
		"sema.check_us":         perFile("sema"),
		"extractor.loops_us":    perFile("extract"),
		"lower.program_us":      perFile("lower"),
		"costmodel.plans_us":    perFile("costmodel"),
		"sim.program_us":        medianRound(rounds, "sim", simCalls),
		"sim.per_file_us":       perFile("sim"),
		"vectorizer.plan_us":    perLoop("plan"),
		"extractor.annotate_us": perFile("annotate"),
		"code2vec.embed_us":     perLoop("embed"),
		"rl.forward_us":         perLoop("forward"),
		"core.loops_per_file":   float64(loops) / float64(len(files)),
		"core.predict_us":       perFile("predict"),
	}
	sums := make([]float64, len(rounds))
	for r, clk := range rounds {
		for stage, d := range clk {
			if stage != "predict" {
				sums[r] += us(d)
			}
		}
		sums[r] /= float64(len(files))
	}
	out["core.stage_sum_us"] = median(sums)
	out["core.unattributed_us"] = out["core.predict_us"] - out["core.stage_sum_us"]
	return out, nil
}

// medianRound is the median over rounds of one stage's total time divided
// by n, in µs.
func medianRound(rounds []stageClock, stage string, n int) float64 {
	xs := make([]float64, len(rounds))
	for i, clk := range rounds {
		xs[i] = us(clk[stage]) / float64(n)
	}
	return median(xs)
}

func clonePlans(p map[string]*vectorizer.Plan) map[string]*vectorizer.Plan {
	out := make(map[string]*vectorizer.Plan, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// checkpointEmbedder builds a code2vec model at the framework's shape and
// copies the checkpoint's embedder weights into it. The agent's parameter
// list starts with the embedder's, in the model's own order.
func checkpointEmbedder(fw *core.Framework) (*code2vec.Model, error) {
	m := code2vec.NewModel(fw.Cfg.Embed)
	own, trained := m.Params(), fw.Agent().Params()
	if len(trained) < len(own) {
		return nil, fmt.Errorf("checkpoint has %d parameters, the embedder alone needs %d", len(trained), len(own))
	}
	for i, p := range own {
		t := trained[i]
		if t.Name != p.Name || len(t.W) != len(p.W) {
			return nil, fmt.Errorf("checkpoint parameter %d is %s[%d], embedder expects %s[%d]", i, t.Name, len(t.W), p.Name, len(p.W))
		}
		copy(p.W, t.W)
	}
	return m, nil
}
