package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// item is one pre-generated request: its shape (for the reference answer
// and the per-class split) and its exact HTTP body.
type item struct {
	s    shape
	path string
	body []byte
}

func newItem(s shape) item { return item{s: s, path: s.path(), body: s.body()} }

// sample is one completed request of a closed-loop run. The body is kept so
// the answer can be checked after the run, outside the timed interval.
type sample struct {
	it     *item
	start  time.Duration // since the run began
	lat    time.Duration
	status int
	err    error
	body   []byte
}

// newClient returns an HTTP client holding at most one keep-alive
// connection, so each closed-loop client is one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}}
}

// post sends one request and reads the whole body; the latency covers
// writing the request through reading the last byte of the response.
func post(ctx context.Context, c *http.Client, url string, it *item, buf *bytes.Buffer) (time.Duration, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+it.path, bytes.NewReader(it.body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	buf.Reset()
	t0 := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return time.Since(t0), 0, err
	}
	_, err = buf.ReadFrom(resp.Body)
	lat := time.Since(t0)
	resp.Body.Close()
	return lat, resp.StatusCode, err
}

// closedLoop drives url from clients goroutines, each sending its next
// request only after the previous reply has been read. Requests are taken
// in order from next (shared across clients) until next returns nil or, for
// d > 0, until d has passed; a request started before then is completed and
// counted. It returns the samples and the wall time from start to the last
// completion.
func closedLoop(ctx context.Context, url string, clients int, d time.Duration, next func(i int) *item) ([]sample, time.Duration) {
	var (
		mu      sync.Mutex
		samples []sample
		cursor  atomic.Int64
		wg      sync.WaitGroup
	)
	begin := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			var buf bytes.Buffer
			var mine []sample
			for ctx.Err() == nil && (d <= 0 || time.Since(begin) < d) {
				it := next(int(cursor.Add(1) - 1))
				if it == nil {
					break
				}
				start := time.Since(begin)
				lat, status, err := post(ctx, client, url, it, &buf)
				mine = append(mine, sample{it: it, start: start, lat: lat, status: status, err: err,
					body: bytes.Clone(buf.Bytes())})
			}
			mu.Lock()
			samples = append(samples, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	var end time.Duration
	for _, s := range samples {
		end = max(end, s.start+s.lat)
	}
	return samples, end
}

// drain sends every item once from clients goroutines (the untimed warm-up
// pass).
func drain(ctx context.Context, url string, clients int, items []item) []sample {
	samples, _ := closedLoop(ctx, url, clients, 0, func(i int) *item {
		if i < len(items) {
			return &items[i]
		}
		return nil
	})
	return samples
}

// getBody fetches url and returns the response body.
func getBody(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}
