package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// errExhausted reports that every input was sent before the window closed.
// A warm-up sends its whole set on purpose; a measured window that runs out
// is a sizing error, since inputs are never reused.
var errExhausted = errors.New("the workload ran out of inputs before the window closed")

// reply is one single-form /v2/compile exchange as the client saw it.
type reply struct {
	job     int           // index into the job list
	latency time.Duration // send until the body was fully read
	done    time.Duration // completion, relative to the window start
	status  int           // HTTP status, 0 on a transport error
	cache   string        // X-Neurovec-Cache
	body    []byte
}

func (r *reply) ok() bool { return r.status >= 200 && r.status < 300 }

// newConn returns a client that keeps exactly one connection to the
// server alive, so n clients hold n connections.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}}
}

// post sends one request body and reads the whole response.
func post(ctx context.Context, c *http.Client, url, contentType string, body []byte) (status int, cache string, out []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	out, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Neurovec-Cache"), out, err
}

// load is one closed-loop run: conns clients, each sending its next
// request only after the previous answer arrived, from start until the
// window closes or the jobs run out.
type load struct {
	url    string
	conns  int
	start  time.Time
	window time.Duration
	jobs   [][]byte
	// milestone, when set, runs once after the first `after` files were
	// answered (a fixed amount of work, whatever the throughput).
	after     int
	milestone func()

	next     atomic.Int64 // next job index
	answered atomic.Int64
	once     sync.Once
}

// closedLoop sends single-form requests and returns every reply.
func (l *load) closedLoop(ctx context.Context) ([]reply, error) {
	var mu sync.Mutex
	var out []reply
	l.run(ctx, func(client *http.Client) bool {
		i := int(l.next.Add(1)) - 1
		if i >= len(l.jobs) {
			return false
		}
		t0 := time.Now()
		status, cache, body, err := post(ctx, client, l.url+"/v2/compile", "application/json", l.jobs[i])
		if err != nil {
			status = 0
		}
		r := reply{job: i, latency: time.Since(t0), done: time.Since(l.start), status: status, cache: cache, body: body}
		mu.Lock()
		out = append(out, r)
		mu.Unlock()
		l.answer(1)
		return true
	})
	return out, l.err(ctx)
}

// run starts the clients; each calls send until it reports false or the
// window closes, and run returns once all have stopped.
func (l *load) run(ctx context.Context, send func(*http.Client) bool) {
	stopAt := l.start.Add(l.window)
	var wg sync.WaitGroup
	for c := 0; c < l.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newConn()
			defer client.CloseIdleConnections()
			for ctx.Err() == nil && time.Now().Before(stopAt) && send(client) {
			}
		}()
	}
	wg.Wait()
}

func (l *load) answer(n int) {
	if l.answered.Add(int64(n)) >= int64(l.after) && l.milestone != nil {
		l.once.Do(l.milestone)
	}
}

func (l *load) err(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if int(l.next.Load()) > len(l.jobs) {
		return errExhausted
	}
	return nil
}

// sendNDJSON posts one NDJSON batch and returns its response lines in the
// order they arrived. A transport error ends the stream; the lines that
// never came count as lost when the batch is matched.
func sendNDJSON(ctx context.Context, c *http.Client, url string, body []byte) [][]byte {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v2/compile", bytes.NewReader(body))
	if err != nil {
		return nil
	}
	req.Header.Set("Content-Type", "application/x-ndjson")
	resp, err := c.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var lines [][]byte
	r := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, err := r.ReadBytes('\n')
		if len(bytes.TrimSpace(line)) > 0 {
			lines = append(lines, line)
		}
		if err != nil {
			return lines
		}
	}
}
