package main

import (
	"context"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"neurovec/internal/api"
	"neurovec/internal/core"
)

// testChecker saves an untrained agent at the shipped shape and loads it
// back as a checker, so the test needs no training run.
func testChecker(t *testing.T) *checker {
	t.Helper()
	fw := core.New(core.DefaultConfig())
	fw.InitAgent(nil)
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := fw.SaveModelFile(path); err != nil {
		t.Fatal(err)
	}
	chk, err := newChecker(path)
	if err != nil {
		t.Fatal(err)
	}
	return chk
}

// answerFor answers f the way the server would, as response bytes.
func answerFor(t *testing.T, chk *checker, f file) *api.CompileResponse {
	t.Helper()
	resp, err := chk.fw.PredictLoops(context.Background(), f.source, f.params, core.WithSourceName(f.name))
	if err != nil {
		t.Fatal(err)
	}
	resp.File = f.name
	// Round-trip through JSON like a response body, on a private copy.
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var out api.CompileResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

func encode(t *testing.T, resp *api.CompileResponse) []byte {
	t.Helper()
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func TestCheckerAcceptsFaithfulResponse(t *testing.T) {
	chk := testChecker(t)
	for _, f := range workingSet(3)[:8] {
		if err := chk.check(f, encode(t, answerFor(t, chk, f))); err != nil {
			t.Errorf("%s: %v", f.name, err)
		}
	}
}

func TestCheckerRejectsFlippedVF(t *testing.T) {
	chk := testChecker(t)
	f := generatedFiles("t", 5, 1)[0]
	resp := answerFor(t, chk, f)
	if resp.Loops[0].VF == 1 {
		resp.Loops[0].VF = 2
	} else {
		resp.Loops[0].VF = 1
	}
	if err := chk.check(f, encode(t, resp)); err == nil {
		t.Fatal("checker accepted a response with a flipped VF")
	}
}

func TestCheckerRejectsChangedAnnotatedLine(t *testing.T) {
	chk := testChecker(t)
	f := generatedFiles("t", 6, 1)[0]
	resp := answerFor(t, chk, f)
	lines := strings.Split(resp.Annotated, "\n")
	for i, l := range lines {
		if strings.Contains(l, "#pragma") {
			lines[i] = strings.Replace(l, "vectorize_width(", "vectorize_width(1", 1)
			break
		}
	}
	changed := strings.Join(lines, "\n")
	if changed == resp.Annotated {
		t.Fatal("test file has no pragma line to change")
	}
	resp.Annotated = changed
	if err := chk.check(f, encode(t, resp)); err == nil {
		t.Fatal("checker accepted a response with a changed annotated line")
	}
}

func TestCheckerRejectsForeignModelVersion(t *testing.T) {
	chk := testChecker(t)
	f := generatedFiles("t", 7, 1)[0]
	resp := answerFor(t, chk, f)
	resp.ModelVersion = "0000000000000000"
	if err := chk.check(f, encode(t, resp)); err == nil {
		t.Fatal("checker accepted a response from another checkpoint")
	}
}

// The stage-by-stage pipeline of the traced run must reproduce
// PredictLoops exactly, or its timings describe some other computation.
func TestTimeLayersMatchesPredictLoops(t *testing.T) {
	chk := testChecker(t)
	m, err := timeLayers(chk, workingSet(4)[:6])
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"lang.parse_us", "code2vec.embed_us", "core.predict_us"} {
		if !(m[name] > 0) {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}
}
