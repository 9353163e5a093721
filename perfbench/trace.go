package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"neurovec/internal/api"
	"neurovec/internal/core"
	"neurovec/internal/nn"
	"neurovec/internal/rl"
)

// traceInputs are the workload inputs the traced run times its layers on.
type traceInputs struct {
	stages []file // timed stage by stage in process
	probe  []file // sent once each through a fresh fleet and its replicas
	ppo    []file // loaded as training units for the PPO timings
	// ppoWindow is how long the PPO timings run (at least ppoIters
	// iterations).
	ppoWindow time.Duration
}

const ppoIters = 3

// traceLayers measures the layers every traced run reports, on the
// workload's own inputs: the inference stages, the service overhead and
// the router hop against a fresh two-replica fleet, the fleet's NDJSON
// stream, and the PPO collect and update steps. It also returns the mean
// queue wait the fleet's replicas saw during the hop probe, and how many
// NDJSON answers disagreed with the checker.
func (b *bench) traceLayers(ctx context.Context, chk *checker, model string, in traceInputs) (m map[string]float64, queueWait float64, incorrect int, err error) {
	if m, err = timeLayers(chk, in.stages); err != nil {
		return nil, 0, 0, err
	}
	srv, _, err := b.launch(ctx, fleetArgs(model), 1)
	if err != nil {
		return nil, 0, 0, err
	}
	defer srv.stop()
	status, err := fleetStatus(srv.url)
	if err != nil {
		return nil, 0, 0, err
	}
	var replicas []string
	for _, r := range status.Replicas {
		replicas = append(replicas, r.Addr)
	}
	before, err := scrapeAll(replicas)
	if err != nil {
		return nil, 0, 0, err
	}
	hop, overhead, err := probeHop(ctx, chk, srv.url, status, in.probe)
	if err != nil {
		return nil, 0, 0, err
	}
	after, err := scrapeAll(replicas)
	if err != nil {
		return nil, 0, 0, err
	}
	m["fleet.hop_us"] = hop
	m["service.overhead_us"] = overhead
	queueWait = queueWaitMS(merge(before), merge(after))

	r0, err := scrape(srv.url)
	if err != nil {
		return nil, 0, 0, err
	}
	sent, lost, extra, incorrect, err := probeNDJSON(ctx, chk, srv.url, generatedFiles("ndjson", b.seed, ndjsonProbe))
	if err != nil {
		return nil, 0, 0, err
	}
	r1, err := scrape(srv.url)
	if err != nil {
		return nil, 0, 0, err
	}
	srv.stop()
	logf("NDJSON probe: %d lines sent, %d lost, %d extra", sent, lost, extra)
	m["ndjson.lines_sent"], m["ndjson.lines_lost"], m["ndjson.lines_extra"] = float64(sent), float64(lost), float64(extra)
	m["fleet.retries"] = delta(r0, r1, "neurovec_fleet_retries_total")
	m["fleet.failovers"] = delta(r0, r1, "neurovec_fleet_requests_total", `outcome="error"`) +
		delta(r0, r1, "neurovec_fleet_requests_total", `outcome="busy"`)

	if m["rl.collect_ms"], m["rl.update_ms"], err = timePPO(ctx, b.seed, in.ppo, in.ppoWindow); err != nil {
		return nil, 0, 0, err
	}
	return m, queueWait, incorrect, nil
}

// probeNDJSON posts files through the router as NDJSON batches of
// ndjsonBatch distinct files, one batch at a time on one connection, and
// pairs each batch's response lines with its request lines by file name.
// It returns the request lines sent, those without a successful response
// line, the response lines beyond one per request line, and how many
// successful lines disagree with the checker.
func probeNDJSON(ctx context.Context, chk *checker, router string, files []file) (sent, lost, extra, incorrect int, err error) {
	client := newConn()
	defer client.CloseIdleConnections()
	var answered []checked
	for first := 0; first+ndjsonBatch <= len(files); first += ndjsonBatch {
		batch := files[first : first+ndjsonBatch]
		names := make([]string, len(batch))
		var body bytes.Buffer
		for i, f := range batch {
			names[i] = f.name
			body.Write(f.body())
			body.WriteByte('\n')
		}
		lines := sendNDJSON(ctx, client, router, body.Bytes())
		if err := ctx.Err(); err != nil {
			return 0, 0, 0, 0, err
		}
		m := matchNDJSON(names, lines)
		for k, line := range m.ok {
			answered = append(answered, checked{file: batch[k], body: lines[line]})
		}
		sent += len(batch)
		lost += m.lost
		extra += m.extra
	}
	return sent, lost, extra, chk.checkAll(answered), nil
}

// probeHop alternates single requests for files the fleet has not seen
// through the router and directly to the replicas, one connection to
// each. Each latency is taken net of one uncached in-process PredictLoops
// on the same file. It returns the router hop (median routed excess minus
// median direct excess) and the service overhead (median direct excess:
// decode, pool, render and transport), both in µs.
func probeHop(ctx context.Context, chk *checker, router string, st *api.FleetStatus, files []file) (hop, overhead float64, err error) {
	viaRouter := newConn()
	defer viaRouter.CloseIdleConnections()
	direct := make([]*http.Client, len(st.Replicas))
	for i := range direct {
		direct[i] = newConn()
		defer direct[i].CloseIdleConnections()
	}
	var routed, straight []float64
	for i := 0; i+1 < len(files); i += 2 {
		d, err := probeOne(ctx, viaRouter, chk, router, files[i])
		if err != nil {
			return 0, 0, err
		}
		routed = append(routed, d)
		k := (i / 2) % len(st.Replicas)
		if d, err = probeOne(ctx, direct[k], chk, st.Replicas[k].Addr, files[i+1]); err != nil {
			return 0, 0, err
		}
		straight = append(straight, d)
	}
	if len(routed) == 0 {
		return 0, 0, errors.New("no probe files")
	}
	overhead = median(straight)
	return median(routed) - overhead, overhead, nil
}

// probeOne returns the single-request latency of f at url minus the time
// of one uncached in-process PredictLoops call on it, in µs. Both are the
// first computation of f in their process.
func probeOne(ctx context.Context, client *http.Client, chk *checker, url string, f file) (float64, error) {
	t0 := time.Now()
	status, _, _, err := post(ctx, client, url+"/v2/compile", "application/json", f.body())
	lat := time.Since(t0)
	if err != nil || status != http.StatusOK {
		return 0, fmt.Errorf("probe %s: status %d: %v", f.name, status, err)
	}
	predict, err := chk.predictUS(f)
	if err != nil {
		return 0, err
	}
	return us(lat) - predict, nil
}

// timePPO loads files as training units into a fresh framework at the
// shipped shape, builds the agent and optimizer `neurovec train` builds
// for the benchmark's PPO runs, and times each CollectBatch and
// UpdateBatch for at least ppoIters iterations and the window. It returns
// the median milliseconds of each.
func timePPO(ctx context.Context, seed int64, files []file, window time.Duration) (collect, update float64, err error) {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	fw := core.New(cfg)
	for _, f := range files {
		if err := fw.LoadSource(f.name, f.source, f.params); err != nil && !errors.Is(err, core.ErrNoLoops) {
			return 0, 0, err
		}
	}
	rc := rl.DefaultConfig(nil, nil)
	rc.Batch, rc.MiniBatch, rc.LR, rc.Seed, rc.Iterations = trainBatch, trainBatch/4, 5e-4, seed, 0
	agent := fw.InitAgent(&rc)
	opt := nn.NewAdam(agent.Cfg.LR)
	var cs, ups []float64
	start := time.Now()
	for iter := 0; iter < ppoIters || time.Since(start) < window; iter++ {
		if err := ctx.Err(); err != nil {
			return 0, 0, err
		}
		t0 := time.Now()
		batch := agent.CollectBatch(fw, seed, iter, runtime.GOMAXPROCS(0))
		t1 := time.Now()
		agent.UpdateBatch(batch, opt, seed, iter)
		cs = append(cs, float64(t1.Sub(t0))/float64(time.Millisecond))
		ups = append(ups, float64(time.Since(t1))/float64(time.Millisecond))
	}
	return median(cs), median(ups), nil
}
