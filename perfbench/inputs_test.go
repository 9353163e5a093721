package main

import (
	"testing"

	"neurovec/internal/api"
	"neurovec/internal/lang"
)

func loopIDs(t *testing.T, src string) map[string]api.LoopID {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("edited source does not parse: %v", err)
	}
	return api.LoopIDs(prog)
}

func TestEditSessionEdits(t *testing.T) {
	ws := workingSet(9)
	if len(ws) != 64 {
		t.Fatalf("working set has %d files, want 64", len(ws))
	}
	sess := newEditSession(9, ws)
	prev := map[string]string{}
	for _, f := range sess.initial() {
		prev[f.name] = f.source
	}
	var kinds [3]int
	for i := 0; i < 3000; i++ {
		op := sess.next()
		kinds[op.kind]++
		before, after := loopIDs(t, prev[op.file.name]), loopIDs(t, op.file.source)
		switch op.kind {
		case resubmit:
			if op.file.source != prev[op.file.name] {
				t.Fatalf("op %d: a resubmit changed %s", i, op.file.name)
			}
		case layoutEdit:
			if op.file.source == prev[op.file.name] {
				t.Fatalf("op %d: a layout edit left %s unchanged", i, op.file.name)
			}
			if changedIDs(before, after) != 0 || len(before) != len(after) {
				t.Fatalf("op %d: a layout edit moved LoopIDs of %s", i, op.file.name)
			}
		case bodyEdit:
			if len(before) != len(after) || changedIDs(before, after) != 1 {
				t.Fatalf("op %d: a body edit changed %d LoopIDs of %s, want 1", i, changedIDs(before, after), op.file.name)
			}
			if !compiles(op.file.source, op.file.params) {
				t.Fatalf("op %d: body edit of %s does not compile", i, op.file.name)
			}
		}
		prev[op.file.name] = op.file.source
	}
	// 60/30/10 within sampling noise over 3000 draws.
	if kinds[resubmit] < 1650 || kinds[resubmit] > 1950 || kinds[layoutEdit] < 750 || kinds[layoutEdit] > 1050 ||
		kinds[bodyEdit] < 220 || kinds[bodyEdit] > 380 {
		t.Errorf("mix %v, want about 1800/900/300", kinds)
	}
}

func TestEditSessionIsDeterministic(t *testing.T) {
	a, b := newEditSession(4, workingSet(4)), newEditSession(4, workingSet(4))
	for i := 0; i < 500; i++ {
		if x, y := a.next(), b.next(); x.kind != y.kind || x.file.name != y.file.name || x.file.source != y.file.source {
			t.Fatalf("op %d differs between two sessions of one seed", i)
		}
	}
}

func TestIncDecimal(t *testing.T) {
	for in, want := range map[string]string{"7": "8", "9": "10", "99": "100", "0.5": "0.6", "0.9": "1.0", "2.99": "3.00"} {
		if got := incDecimal(in); got != want {
			t.Errorf("incDecimal(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGeneratedFilesDistinct(t *testing.T) {
	files := generatedFiles("g", 2, 300)
	seen := map[string]bool{}
	for _, f := range files {
		if seen[f.source] || seen[f.name] {
			t.Fatalf("duplicate input %s", f.name)
		}
		seen[f.source], seen[f.name] = true, true
	}
}
