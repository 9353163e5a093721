package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// stubServer answers single requests with a fixed body and NDJSON batches
// with one line per request line.
func stubServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("Content-Type") == "application/x-ndjson" {
			sc := bufio.NewScanner(r.Body)
			var n int
			for sc.Scan() {
				n++
			}
			for i := 0; i < n; i++ {
				fmt.Fprintf(w, "{\"file\":\"f%d\"}\n", i)
			}
			return
		}
		w.Header().Set("X-Neurovec-Cache", "miss")
		fmt.Fprint(w, `{"loops":[]}`)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestClosedLoopRunsOutOfJobs(t *testing.T) {
	srv := stubServer(t)
	jobs := make([][]byte, 50)
	for i := range jobs {
		jobs[i] = []byte(`{"source":"x"}`)
	}
	var milestones atomic.Int32
	l := &load{url: srv.URL, conns: 4, start: time.Now(), window: time.Minute, jobs: jobs,
		after: 20, milestone: func() { milestones.Add(1) }}
	replies, err := l.closedLoop(context.Background())
	if !errors.Is(err, errExhausted) {
		t.Fatalf("err = %v, want errExhausted", err)
	}
	if len(replies) != len(jobs) || milestones.Load() != 1 {
		t.Fatalf("%d replies, %d milestones; want %d and 1", len(replies), milestones.Load(), len(jobs))
	}
	seen := map[int]bool{}
	for _, r := range replies {
		if !r.ok() || r.cache != "miss" || seen[r.job] {
			t.Fatalf("bad reply %+v", r)
		}
		seen[r.job] = true
	}
}

func TestSendNDJSONReadsEveryLine(t *testing.T) {
	srv := stubServer(t)
	client := newConn()
	defer client.CloseIdleConnections()
	lines := sendNDJSON(context.Background(), client, srv.URL, []byte("{\"source\":\"x\"}\n{\"source\":\"y\"}\n{\"source\":\"z\"}\n"))
	if len(lines) != 3 {
		t.Fatalf("3 request lines got %d response lines", len(lines))
	}
	names := []string{"f0", "f1", "f2"}
	if m := matchNDJSON(names, lines); m.failed != 0 || len(m.ok) != 3 {
		t.Fatalf("match %+v", m)
	}
}
