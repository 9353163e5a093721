package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"neurovec/internal/core"
	"neurovec/internal/evalharness"
)

// The PPO run: the shipped model shape (code2vec OutDim 340, policy 64x64)
// on the seed's generated corpus. A window runs trainRuns runs of the same
// fixed number of iterations, sized so that together they take about the
// window on a 2-core host (about 0.42 s per iteration).
const (
	trainCorpusN = 256
	trainRuns    = 2
	trainBatch   = 16
)

// trainIters is the number of PPO iterations of one run.
func (b *bench) trainIters() int { return max(4, int(b.duration.Seconds())*6/5) }

// trainArgs is the `neurovec train` command line of one PPO run.
func (b *bench) trainArgs(out string) []string {
	return []string{"train", "-corpus", "generated", "-n", strconv.Itoa(trainCorpusN),
		"-iters", strconv.Itoa(b.trainIters()), "-batch", strconv.Itoa(trainBatch),
		"-seed", strconv.FormatInt(b.seed, 10), "-out", out}
}

// trainRun is what the client saw of one `neurovec train` process.
type trainRun struct {
	setup time.Duration // launch until the corpus and framework were built
	// iters are the PPO iterations (collect + update) but the last, whose
	// time also covers writing the final checkpoint.
	iters   []slice
	rssMB   float64 // peak resident set size
	version string  // model_version of the final checkpoint
}

// runTrainPPO: trainRuns fixed-length PPO runs through `neurovec train`,
// back to back (two, so determinism is checked). Latencies are per PPO
// iteration; throughput counts rollout samples.
func runTrainPPO(ctx context.Context, b *bench) (*outcome, error) {
	if b.trace {
		return b.traceTrainPPO(ctx)
	}
	var runs []trainRun
	for i := 0; i < trainRuns; i++ {
		r, err := b.trainOnce(ctx, i)
		if err != nil {
			return nil, err
		}
		runs = append(runs, r)
	}
	var all []slice
	var setups, rss []float64
	correct := true
	for _, r := range runs {
		setups = append(setups, r.setup.Seconds())
		rss = append(rss, r.rssMB)
		all = append(all, r.iters...)
		if r.version != runs[0].version {
			correct = false
			logf("incorrect output: seed %d trained to model_version %s and %s", b.seed, runs[0].version, r.version)
		}
	}
	// Latencies and throughput leave out the iterations during which the
	// host stole the most CPU, by the serving workloads' slice rule.
	quiet := keepQuiet(all)
	var iters []float64
	for _, it := range quiet {
		iters = append(iters, float64(it.end-it.start)/float64(time.Millisecond))
	}
	samples := len(runs) * b.trainIters() * trainBatch
	logf("%d PPO runs, %d rollout samples, %d of %d timed iterations kept, model_version %s",
		len(runs), samples, len(iters), len(all), runs[0].version)
	return &outcome{
		correct:   correct,
		attempted: int64(samples),
		metrics: map[string]float64{
			"p50_ms":      quantile(iters, 0.50),
			"p99_ms":      quantile(iters, 0.99),
			"files_per_s": float64(len(iters)*trainBatch) / quiet.span().Seconds(),
			"setup_s":     median(setups),
			"peak_rss_mb": median(rss),
		},
	}, nil
}

// trainOnce runs `neurovec train` and timestamps its progress lines: the
// corpus summary marks the end of set-up, each "iter" line the end of one
// PPO iteration.
func (b *bench) trainOnce(ctx context.Context, i int) (trainRun, error) {
	ckpt := filepath.Join(b.work, fmt.Sprintf("train-%d.gob", i))
	logPath := filepath.Join(b.work, fmt.Sprintf("train-%d.log", i))
	logFile, err := os.Create(logPath)
	if err != nil {
		return trainRun{}, err
	}
	defer logFile.Close()
	cmd := exec.CommandContext(ctx, b.bin, b.trainArgs(ckpt)...)
	cmd.Stderr = logFile
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return trainRun{}, err
	}
	var r trainRun
	started := time.Now()
	if err := cmd.Start(); err != nil {
		return trainRun{}, err
	}
	last := started
	lastTicks := readTicks()
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		now := time.Now()
		ticks := readTicks()
		line := sc.Text()
		fmt.Fprintln(logFile, line)
		switch {
		case strings.HasPrefix(line, "training on "):
			r.setup = now.Sub(started)
		case strings.HasPrefix(line, "iter "):
			r.iters = append(r.iters, slice{start: last.Sub(started), end: now.Sub(started), steal: stealShare(lastTicks, ticks)})
		}
		last, lastTicks = now, ticks
	}
	if err := cmd.Wait(); err != nil {
		return trainRun{}, fmt.Errorf("neurovec train: %v (log: %s)", err, logPath)
	}
	if n := b.trainIters(); r.setup == 0 || len(r.iters) != n {
		return trainRun{}, fmt.Errorf("neurovec train printed %d of %d iterations (log: %s)", len(r.iters), n, logPath)
	}
	r.iters = r.iters[:len(r.iters)-1]
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	} else {
		return trainRun{}, errors.New("no rusage for the train process")
	}
	fw := core.New(core.DefaultConfig())
	if err := fw.LoadModelFile(ckpt); err != nil {
		return trainRun{}, err
	}
	r.version = fw.ModelVersion()
	return r, os.Remove(ckpt)
}

// traceTrainPPO times the layers on the training corpus: the PPO collect
// and update steps on the same corpus and configuration `neurovec train`
// builds, and the inference stages and the fleet probe on its sources.
func (b *bench) traceTrainPPO(ctx context.Context) (*outcome, error) {
	corpus, err := evalharness.BuildCorpus(evalharness.SuiteGenerated, trainCorpusN, b.seed)
	if err != nil {
		return nil, err
	}
	var files []file
	for _, it := range corpus.Items {
		if compiles(it.Source, it.Params) {
			files = append(files, file{name: it.Suite + "/" + it.Name, source: it.Source, params: it.Params})
		}
	}
	model, err := b.checkpoint(ctx)
	if err != nil {
		return nil, err
	}
	chk, err := newChecker(model)
	if err != nil {
		return nil, err
	}
	in := traceInputs{stages: files[:min(stageFileCount, len(files))], probe: files[:min(2*probeFiles, len(files))],
		ppo: files, ppoWindow: b.duration}
	m, queueWait, incorrect, err := b.traceLayers(ctx, chk, model, in)
	if err != nil {
		return nil, err
	}
	m["service.queue_wait_ms"] = queueWait // of the probe: training serves nothing
	// No request of the training run meets a cache.
	for _, k := range []string{"service.cache_hit_ratio", "service.cache_lookups", "fail_ratio"} {
		m[k] = 0
	}
	return &outcome{correct: incorrect == 0, attempted: int64(len(in.stages) + len(in.probe)), metrics: m}, nil
}
