package core

import (
	"context"
	"os"
	"regexp"
	"strings"
	"testing"

	"neurovec/internal/obs"
)

// pipelineStages is every compile-pipeline stage the instrumentation must
// report — the contract the /metrics stage histogram and ?trace=1 build on.
var pipelineStages = []string{"compile", "parse", "sema", "extract", "lower", "deps", "sim_baseline", "decide", "sim"}

func TestPredictLoopsEmitsPipelineSpans(t *testing.T) {
	fw := New(DefaultConfig())
	tr := obs.NewTrace()
	ctx := obs.WithRecorder(context.Background(), tr, nil)
	if _, err := fw.PredictLoops(ctx, twoLoopSrc, nil, WithPolicyName("costmodel")); err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	byName := map[string]int{}
	for _, s := range spans {
		byName[s.Name]++
		if s.Duration < 0 || s.Start < 0 {
			t.Errorf("span %s has negative timing: %+v", s.Name, s)
		}
	}
	for _, stage := range pipelineStages {
		if byName[stage] == 0 {
			t.Errorf("no %q span recorded; got %v", stage, byName)
		}
	}
	// Two loops: one decide and one per-loop sim each, plus the combined sim.
	if byName["decide"] != 2 {
		t.Errorf("decide spans = %d, want 2", byName["decide"])
	}
	if byName["sim"] != 3 {
		t.Errorf("sim spans = %d, want 3 (two per-loop + combined)", byName["sim"])
	}
	// The pipeline stages nest under the root compile span.
	for _, s := range spans {
		if s.Name == "compile" && s.Depth != 0 {
			t.Errorf("compile span depth = %d, want 0", s.Depth)
		}
		if s.Name == "parse" && s.Depth != 1 {
			t.Errorf("parse span depth = %d, want 1", s.Depth)
		}
	}
	if ts := TraceSpans(tr); len(ts) != len(spans) {
		t.Errorf("TraceSpans lost records: %d != %d", len(ts), len(spans))
	}
}

func TestPredictLoopsEmbedSpanOnLearnedPolicy(t *testing.T) {
	fw := versionedFramework(t)
	tr := obs.NewTrace()
	ctx := obs.WithRecorder(context.Background(), tr, nil)
	if _, err := fw.PredictLoops(ctx, twoLoopSrc, nil); err != nil {
		t.Fatal(err)
	}
	embeds := 0
	for _, s := range tr.Spans() {
		if s.Name == "embed" {
			embeds++
			if s.Detail == "" {
				t.Errorf("embed span missing loop detail")
			}
		}
	}
	if embeds != 2 {
		t.Errorf("embed spans = %d, want 2 (one per loop)", embeds)
	}
}

func TestTraceSpansNilSafe(t *testing.T) {
	if got := TraceSpans(nil); got != nil {
		t.Errorf("TraceSpans(nil) = %v, want nil", got)
	}
	if got := TraceSpans(obs.NewTrace()); got != nil {
		t.Errorf("TraceSpans(empty) = %v, want nil", got)
	}
}

// TestEmittedStagesAreDocumented ties the span names the compile pipeline
// emits to the stage list in docs/OBSERVABILITY.md: PredictLoops (under a
// learned and a cost-model policy) and SweepSource run under a recorder,
// and every span name they emit must appear in the list.
func TestEmittedStagesAreDocumented(t *testing.T) {
	body, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Join(strings.Fields(string(body)), " ")
	start := strings.Index(doc, "Stages emitted by the compile pipeline")
	end := strings.Index(doc, "The trainer adds")
	if start < 0 || end < start {
		t.Fatal("docs/OBSERVABILITY.md: compile-pipeline stage list not found")
	}
	documented := map[string]bool{}
	for _, m := range regexp.MustCompile("`([a-z_]+)`").FindAllStringSubmatch(doc[start:end], -1) {
		documented[m[1]] = true
	}

	tr := obs.NewTrace()
	ctx := obs.WithRecorder(context.Background(), tr, nil)
	fw := versionedFramework(t)
	if _, err := fw.PredictLoops(ctx, twoLoopSrc, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.PredictLoops(ctx, twoLoopSrc, nil, WithPolicyName("costmodel")); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.SweepSource(ctx, twoLoopSrc, nil); err != nil {
		t.Fatal(err)
	}
	emitted := map[string]bool{}
	for _, s := range tr.Spans() {
		emitted[s.Name] = true
	}
	for _, want := range []string{"embed", "sema", "sweep"} {
		if !emitted[want] {
			t.Errorf("no %q span emitted; got %v", want, emitted)
		}
	}
	for name := range emitted {
		if !documented[name] {
			t.Errorf("stage %q is emitted but missing from the stage list in docs/OBSERVABILITY.md", name)
		}
	}
}
