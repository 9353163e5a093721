package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"neurovec/internal/api"
	"neurovec/internal/core"
	"neurovec/internal/extractor"
	"neurovec/internal/lang"
)

// checker verifies compile responses without trusting the serving path:
// each expected answer comes from an uncached in-process
// core.PredictLoops over the same checkpoint. Expected answers are memoized
// by the file name, params and the canonical re-print of the parsed source,
// so sources that differ only in comments or whitespace (and therefore
// parse to the same program) share one computation.
type checker struct {
	fw      *core.Framework
	version string

	mu   sync.Mutex
	memo map[string]*expectation
}

type expectation struct {
	once sync.Once
	resp *api.CompileResponse
	err  error
}

func newChecker(modelPath string) (*checker, error) {
	fw := core.New(core.DefaultConfig())
	if err := fw.LoadModelFile(modelPath); err != nil {
		return nil, fmt.Errorf("checker: %w", err)
	}
	return &checker{fw: fw, version: fw.ModelVersion(), memo: map[string]*expectation{}}, nil
}

func (c *checker) expected(f file) (*api.CompileResponse, error) {
	prog, err := lang.ParseFile(f.name, f.source)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(f.params))
	for k, v := range f.params {
		keys = append(keys, fmt.Sprintf("%s=%d", k, v))
	}
	sort.Strings(keys)
	key := f.name + "\x00" + strings.Join(keys, ",") + "\x00" + lang.Print(prog)
	c.mu.Lock()
	e := c.memo[key]
	if e == nil {
		e = &expectation{}
		c.memo[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.resp, e.err = c.fw.PredictLoops(context.Background(), f.source, f.params, core.WithSourceName(f.name))
	})
	return e.resp, e.err
}

// check compares one successful response body for f with the expected
// answer. It returns nil when they agree on the annotated text, every
// loop's (loop_id, vf, if, cycles), predicted_cycles and model_version, and
// when the annotated text re-parses to the same LoopIDs.
func (c *checker) check(f file, body []byte) error {
	var got api.CompileResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("%s: undecodable response: %v", f.name, err)
	}
	return c.compare(f, &got)
}

func (c *checker) compare(f file, got *api.CompileResponse) error {
	want, err := c.expected(f)
	if err != nil {
		return fmt.Errorf("%s: in-process PredictLoops failed: %v", f.name, err)
	}
	switch {
	case got.File != f.name:
		return fmt.Errorf("%s: response names file %q", f.name, got.File)
	case got.ModelVersion != c.version:
		return fmt.Errorf("%s: model_version %q, checkpoint is %q", f.name, got.ModelVersion, c.version)
	case got.Annotated != want.Annotated:
		return fmt.Errorf("%s: annotated source differs", f.name)
	case got.PredictedCycles != want.PredictedCycles:
		return fmt.Errorf("%s: predicted_cycles %v, want %v", f.name, got.PredictedCycles, want.PredictedCycles)
	case len(got.Loops) != len(want.Loops):
		return fmt.Errorf("%s: %d loops, want %d", f.name, len(got.Loops), len(want.Loops))
	}
	for i, g := range got.Loops {
		w := want.Loops[i]
		if g.Loop != w.Loop || g.VF != w.VF || g.IF != w.IF || g.Cycles != w.Cycles {
			return fmt.Errorf("%s: loop %d is (%s, vf %d, if %d, %v cycles), want (%s, vf %d, if %d, %v cycles)",
				f.name, i, g.Loop, g.VF, g.IF, g.Cycles, w.Loop, w.VF, w.IF, w.Cycles)
		}
	}
	// Pragma injection must not move any LoopID.
	prog, err := lang.Parse(got.Annotated)
	if err != nil {
		return fmt.Errorf("%s: annotated source does not parse: %v", f.name, err)
	}
	ids := api.LoopIDs(prog)
	infos := extractor.Loops(prog)
	if len(infos) != len(got.Loops) {
		return fmt.Errorf("%s: annotated source has %d loops, response %d", f.name, len(infos), len(got.Loops))
	}
	for i, info := range infos {
		if ids[info.Label] != got.Loops[i].Loop {
			return fmt.Errorf("%s: loop %d re-parses as %s, response says %s", f.name, i, ids[info.Label], got.Loops[i].Loop)
		}
	}
	return nil
}

// checked is one response to verify: the file it answers and its body.
type checked struct {
	file file
	body []byte
}

// checkAll verifies the responses on GOMAXPROCS goroutines and returns the
// number that disagree, printing the first few disagreements.
func (c *checker) checkAll(items []checked) int {
	var bad atomic.Int64
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				if err := c.check(items[i].file, items[i].body); err != nil {
					if bad.Add(1) <= 5 {
						logf("incorrect output: %v", err)
					}
				}
			}
		}()
	}
	wg.Wait()
	return int(bad.Load())
}
