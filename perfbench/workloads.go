package main

import "context"

// runColdFiles: direct `serve`, single-JSON requests, every file distinct,
// after a warm-up on a disjoint set. Every cache misses.
func runColdFiles(ctx context.Context, b *bench) (*outcome, error) {
	n := warmFiles + b.inputs(coldRate, coldConns())
	files := generatedFiles("cold", b.seed, n+2*probeFiles)
	jobs := files[warmFiles:n]
	return b.runDirect(ctx, directRun{
		conns:    coldConns(),
		warm:     files[:warmFiles],
		jobs:     jobs,
		probe:    files[n:],
		stages:   jobs[:stageFileCount],
		rssAfter: int(b.duration.Seconds()) * coldRSSRate,
	})
}

// runEditSession: direct `serve` over a 64-file working set that an editor
// resubmits (60%), re-lays out (30%) and edits inside one loop body (10%).
func runEditSession(ctx context.Context, b *bench) (*outcome, error) {
	sess := newEditSession(b.seed, workingSet(b.seed))
	warm := sess.initial()
	for i := 0; i < editWarmOps; i++ {
		warm = append(warm, sess.next().file)
	}
	jobs := make([]file, b.inputs(editRate, editConns()))
	var kinds [3]int
	for i := range jobs {
		op := sess.next()
		jobs[i] = op.file
		kinds[op.kind]++
	}
	logf("edit stream: %d resubmits, %d layout edits, %d body edits", kinds[resubmit], kinds[layoutEdit], kinds[bodyEdit])
	// The layer timings use the distinct sources the session sends.
	var stages []file
	seen := map[string]bool{}
	for _, f := range jobs {
		if len(stages) == stageFileCount {
			break
		}
		if !seen[f.source] {
			seen[f.source] = true
			stages = append(stages, f)
		}
	}
	return b.runDirect(ctx, directRun{
		conns:    editConns(),
		warm:     warm,
		jobs:     jobs,
		probe:    generatedFiles("probe", b.seed+1, 2*probeFiles),
		stages:   stages,
		rssAfter: int(b.duration.Seconds()) * editRSSRate,
	})
}

func scrapeAll(urls []string) ([]promText, error) {
	out := make([]promText, len(urls))
	for i, u := range urls {
		p, err := scrape(u)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// merge sums several scrapes series by series.
func merge(ps []promText) promText {
	out := promText{}
	for _, p := range ps {
		for k, v := range p {
			out[k] += v
		}
	}
	return out
}
