package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"neurovec/internal/api"
)

// Sizing. The per-connection rates bound how many inputs a window can
// consume (a 2-core host measured 280-360 cold files/s on one connection
// and 2000-3100 edit requests/s on two); a run that exhausts its inputs
// fails rather than reusing any.
const (
	setupReps      = 5    // launches per run; setup_s is their median
	warmFiles      = 120  // cold warm-up files, disjoint from the measured ones
	coldRate       = 750  // upper bound on cold files/s per connection
	editRate       = 3000 // upper bound on edit-session requests/s per connection
	coldRSSRate    = 120  // peak RSS is read after seconds*rate files ...
	editRSSRate    = 800  // ... about 40% of a run's work on a 2-core host
	editWarmOps    = 600  // edit-session requests sent before measuring
	ndjsonBatch    = 16   // traced run: files per NDJSON request ...
	ndjsonProbe    = 320  // ... and files sent through the fleet's stream
	probeFiles     = 120  // traced run: single-connection probe files
	stageFileCount = 100  // traced run: files timed layer by layer in process
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// The closed loops' connection counts. A cold file takes about 3 ms: one
// connection per CPU but one leaves a CPU to this process (sending,
// reading, the steal sampler) and to the host, so that no request waits for
// a CPU the load itself holds, and keeps the check of every answer short.
// An edit-session request takes about 0.3 ms, and with a CPU idle between
// requests the host's wake-ups dominate: on one connection of a 2-core
// host, edit_session fell to half its rate while the host stole 18-28% of
// the CPUs, cold_files by 15%. So the edit session keeps every CPU busy.
func coldConns() int { return max(1, runtime.NumCPU()-1) }
func editConns() int { return runtime.NumCPU() }

// inputs is how many inputs a window at most consumes at rate per
// connection over n connections.
func (b *bench) inputs(rate, n int) int { return int(b.duration.Seconds()) * rate * n }

// checkpoint trains (once per seed, then reuses) the serving checkpoint at
// the shipped model shape on the generated corpus of the seed.
func (b *bench) checkpoint(ctx context.Context) (string, error) {
	dir := filepath.Join(b.work, "models")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("seed-%d.gob", b.seed))
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	tmp := path + ".tmp"
	cmd := exec.CommandContext(ctx, b.bin, "train", "-corpus", "generated", "-n", "64",
		"-iters", "1", "-batch", "32", "-seed", strconv.FormatInt(b.seed, 10), "-out", tmp)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("train checkpoint: %v\n%s", err, out)
	}
	return path, os.Rename(tmp, path)
}

// launch starts the server reps times, stopping all but the last, and
// returns the last one with the median launch-to-ready time.
func (b *bench) launch(ctx context.Context, args []string, reps int) (*server, float64, error) {
	var setups []float64
	for i := 0; ; i++ {
		logPath := filepath.Join(b.work, fmt.Sprintf("%s-%d.log", args[0], i))
		s, err := startServer(ctx, b.bin, args, logPath)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, s.setup.Seconds())
		if i == reps-1 {
			return s, median(setups), nil
		}
		s.stop()
	}
}

// fileStats accumulates what the client saw per file. Every file counts
// as attempted; latencies and throughput come from the files answered
// within the quiet slices of the window.
type fileStats struct {
	quiet     quietSlices
	lat       []time.Duration
	attempted int64
	failed    int64
	check     []checked
	last      map[string]checked // per file name: the last answer queued for checking
}

// add records one file's answer: ok tells whether it succeeded, done when
// it arrived relative to the window start. An answer byte-identical to the
// one last queued for the same file and source has the same verdict and
// is not queued again.
func (st *fileStats) add(ok bool, done, latency time.Duration, f file, body []byte) {
	st.attempted++
	if !ok {
		st.failed++
		return
	}
	if prev, seen := st.last[f.name]; !seen || prev.file.source != f.source || !bytes.Equal(prev.body, body) {
		if st.last == nil {
			st.last = map[string]checked{}
		}
		st.last[f.name] = checked{file: f, body: body}
		st.check = append(st.check, checked{file: f, body: body})
	}
	if st.quiet.holds(done) {
		st.lat = append(st.lat, latency)
	}
}

// endToEnd fills the end-to-end metrics of a run.
func (st *fileStats) endToEnd(setup, rss float64) map[string]float64 {
	ms := durationsMS(st.lat)
	logf("%d latency samples from %d quiet slices (%.1fs)", len(ms), len(st.quiet), st.quiet.span().Seconds())
	return map[string]float64{
		"p50_ms":      quantile(ms, 0.50),
		"p99_ms":      quantile(ms, 0.99),
		"files_per_s": float64(len(ms)) / st.quiet.span().Seconds(),
		"setup_s":     setup,
		"peak_rss_mb": rss,
	}
}

// succeeded reports whether a single-form reply is a 2xx without an error
// field.
func succeeded(r *reply) bool {
	var probe struct {
		Error string `json:"error"`
	}
	return r.ok() && json.Unmarshal(r.body, &probe) == nil && probe.Error == ""
}

// bodies encodes the request of every file, sharing the bytes between
// requests for the same file and source.
func bodies(files []file) [][]byte {
	type key struct{ name, source string }
	enc := map[key][]byte{}
	out := make([][]byte, len(files))
	for i, f := range files {
		k := key{f.name, f.source}
		if enc[k] == nil {
			enc[k] = f.body()
		}
		out[i] = enc[k]
	}
	return out
}

// served is one workload run against a server process: its checkpoint,
// the checker for its answers, and the server with its set-up time.
type served struct {
	model string
	chk   *checker
	srv   *server
	setup float64
}

// serve trains (or reuses) the seed's checkpoint and launches the server
// args(model) names: setupReps times for the end-to-end run, so that
// setup_s is a median, and once for the traced run.
func (b *bench) serve(ctx context.Context, args func(model string) []string) (*served, error) {
	model, err := b.checkpoint(ctx)
	if err != nil {
		return nil, err
	}
	chk, err := newChecker(model)
	if err != nil {
		return nil, err
	}
	reps := setupReps
	if b.trace {
		reps = 1
	}
	srv, setup, err := b.launch(ctx, args(model), reps)
	if err != nil {
		return nil, err
	}
	return &served{model: model, chk: chk, srv: srv, setup: setup}, nil
}

func serveArgs(model string) []string { return []string{"serve", "-model", model} }
func fleetArgs(model string) []string { return []string{"fleet", "-replicas", "2", "-model", model} }

// measure runs the measured window: drive sends l's jobs from a fresh
// start while the host's steal is sampled, and the server's peak RSS is
// read once l.after files were answered. It returns the quiet slices and
// the peak RSS (0 when fewer files were answered).
func (b *bench) measure(ctx context.Context, s *served, l *load, drive func(*load) error) (quietSlices, float64, error) {
	var rss float64
	var rssErr error
	l.window = b.duration
	l.milestone = func() { rss, rssErr = s.srv.peakRSSMB() }
	l.start = time.Now()
	steal := sampleSteal(l.start)
	err := drive(l)
	quiet := steal.stop(b.duration)
	if err == nil {
		err = rssErr
	}
	return quiet, rss, err
}

// finish stops the server, checks every queued answer, and either fills
// the end-to-end metrics or adds the traced layer timings to the load
// counters already in out.metrics.
func (b *bench) finish(ctx context.Context, s *served, st *fileStats, rss float64, rssAfter int, in traceInputs, out *outcome) error {
	s.srv.stop()
	bad := s.chk.checkAll(st.check)
	out.correct = bad == 0
	out.attempted, out.failed = st.attempted, st.failed
	logf("%d attempted, %d failed, %d checked, %d incorrect", st.attempted, st.failed, len(st.check), bad)
	if !b.trace {
		if rss == 0 {
			return fmt.Errorf("fewer than %d files answered; peak RSS not taken", rssAfter)
		}
		out.metrics = st.endToEnd(s.setup, rss)
		return nil
	}
	out.metrics["fail_ratio"] = ratio(float64(st.failed), float64(st.attempted))
	layers, _, incorrect, err := b.traceLayers(ctx, s.chk, s.model, in)
	for k, v := range layers {
		out.metrics[k] = v
	}
	out.correct = out.correct && incorrect == 0
	return err
}

// directRun describes one workload against a single `neurovec serve`.
type directRun struct {
	conns  int    // closed-loop connections
	warm   []file // sent before measuring, closed loop
	jobs   []file // measured, in order
	probe  []file // traced: distinct files for the fleet probe
	stages []file // traced: files timed layer by layer
	// rssAfter is the number of measured files after which peak RSS is
	// read, so that it covers the same work in every run.
	rssAfter int
}

// runDirect drives `neurovec serve` with d's inputs over d.conns
// connections and checks every successful reply.
func (b *bench) runDirect(ctx context.Context, d directRun) (*outcome, error) {
	s, err := b.serve(ctx, serveArgs)
	if err != nil {
		return nil, err
	}
	defer s.srv.stop()
	warm := &load{url: s.srv.url, conns: d.conns, start: time.Now(), window: time.Hour, jobs: bodies(d.warm)}
	if _, err := warm.closedLoop(ctx); err != nil && !errors.Is(err, errExhausted) {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	before, err := scrape(s.srv.url)
	if err != nil {
		return nil, err
	}
	var replies []reply
	l := &load{url: s.srv.url, conns: d.conns, jobs: bodies(d.jobs), after: d.rssAfter}
	quiet, rss, err := b.measure(ctx, s, l, func(l *load) (err error) {
		replies, err = l.closedLoop(ctx)
		return err
	})
	if err != nil {
		return nil, err
	}
	after, err := scrape(s.srv.url)
	if err != nil {
		return nil, err
	}
	st := &fileStats{quiet: quiet}
	var hits, misses int64
	for i := range replies {
		r := &replies[i]
		st.add(succeeded(r), r.done, r.latency, d.jobs[r.job], r.body)
		switch r.cache {
		case "hit":
			hits++
		case "miss":
			misses++
		}
	}
	out := &outcome{metrics: map[string]float64{
		"service.cache_lookups":   float64(hits + misses),
		"service.cache_hit_ratio": ratio(float64(hits), float64(hits+misses)),
		"service.queue_wait_ms":   queueWaitMS(before, after),
	}}
	in := traceInputs{stages: d.stages, probe: d.probe, ppo: d.stages}
	return out, b.finish(ctx, s, st, rss, d.rssAfter, in, out)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// queueWaitMS is the mean pool queue wait over the window, from the
// /metrics histogram deltas of one or more servers.
func queueWaitMS(before, after promText) float64 {
	sum := delta(before, after, "neurovec_queue_wait_seconds_sum")
	n := delta(before, after, "neurovec_queue_wait_seconds_count")
	return 1000 * ratio(sum, n)
}

// fleetStatus reads the router's replica list.
func fleetStatus(url string) (*api.FleetStatus, error) {
	resp, err := http.Get(url + "/fleet/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	var st api.FleetStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, fmt.Errorf("fleet status: %w", err)
	}
	return &st, nil
}
