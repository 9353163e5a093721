// Command perfbench is neurovec's end-to-end benchmark. One invocation runs
// one workload against the real `neurovec` binary (serve, fleet, train) and
// the real packages, checks every successful output against an independent
// in-process computation, and prints one JSON result line:
//
//	perfbench -bin .bench_build/neurovec -work .bench_build \
//	    --workload cold_files --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics (latency,
// throughput, set-up time, memory); with --trace 1 it carries the per-layer
// metrics, timed from outside by calling each layer's public functions on
// the workload's own inputs. perfbench/run.sh builds both binaries and runs
// this command; README.md describes the workloads and what each metric
// should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric. The tables below are the single
// source of the names and units BENCHMARK.json lists; a test ties the two.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

var endToEnd = []metricDef{
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"files_per_s", "1/s", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"lang.parse_us", "us", "lower"},
	{"sema.check_us", "us", "lower"},
	{"extractor.loops_us", "us", "lower"},
	{"lower.program_us", "us", "lower"},
	{"costmodel.plans_us", "us", "lower"},
	{"sim.program_us", "us", "lower"},
	{"sim.per_file_us", "us", "lower"},
	{"vectorizer.plan_us", "us", "lower"},
	{"extractor.annotate_us", "us", "lower"},
	{"code2vec.embed_us", "us", "lower"},
	{"rl.forward_us", "us", "lower"},
	{"core.loops_per_file", "count", "lower"},
	{"core.predict_us", "us", "lower"},
	{"core.stage_sum_us", "us", "lower"},
	{"core.unattributed_us", "us", "lower"},
	{"service.overhead_us", "us", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.cache_lookups", "count", "higher"},
	{"service.queue_wait_ms", "ms", "lower"},
	{"fleet.hop_us", "us", "lower"},
	{"fleet.retries", "count", "lower"},
	{"fleet.failovers", "count", "lower"},
	{"ndjson.lines_sent", "count", "higher"},
	{"ndjson.lines_lost", "count", "lower"},
	{"ndjson.lines_extra", "count", "lower"},
	{"rl.collect_ms", "ms", "lower"},
	{"rl.update_ms", "ms", "lower"},
	{"fail_ratio", "ratio", "lower"},
}

// workload is one benchmark traffic shape. run measures it and returns
// either the end-to-end or the per-layer metrics, as b.trace selects.
type workload struct {
	name string
	run  func(ctx context.Context, b *bench) (*outcome, error)
}

var workloads = []workload{
	{"cold_files", runColdFiles},
	{"edit_session", runEditSession},
	{"train_ppo", runTrainPPO},
}

// outcome is what a workload measured: the output check, the attempt and
// failure counts, and the metric values by name.
type outcome struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   map[string]float64
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// bench carries one invocation's settings and the paths it works in.
type bench struct {
	seed     int64
	duration time.Duration
	trace    bool
	bin      string // the neurovec binary under test
	work     string // scratch directory for checkpoints, logs, temp files
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: cold_files, edit_session, train_ppo")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 10, "measurement window in seconds")
		trace   = flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
		bin     = flag.String("bin", "", "neurovec binary to benchmark (required)")
		work    = flag.String("work", ".bench_build", "directory for checkpoints, logs and temp files")
	)
	flag.Parse()
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	case *bin == "":
		fmt.Fprintln(os.Stderr, "perfbench: -bin is required")
		return 2
	case *seconds < 1:
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		return 2
	}
	b := &bench{
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
	}
	var err error
	if b.bin, err = filepath.Abs(*bin); err == nil {
		b.work, err = filepath.Abs(*work)
	}
	if err == nil {
		err = os.MkdirAll(b.work, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	// SIGINT/SIGTERM cancel the run; every workload stops the processes it
	// started before returning.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	out, err := w.run(ctx, b)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := render(out, b.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// render checks that the outcome carries exactly the metric set the mode
// promises and encodes the result line.
func render(out *outcome, trace bool) ([]byte, error) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	res := resultLine{
		Correct:   out.correct,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(out.metrics) != len(defs) {
		var extra []string
		for name := range out.metrics {
			if _, ok := res.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("unlisted metrics %v", extra)
	}
	return json.Marshal(&res)
}
