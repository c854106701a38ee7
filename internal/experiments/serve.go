package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/dfgio"
	"repro/internal/serve"
)

// Replay fleet shape: serveClients concurrent clients each issuing
// serveRequestsPerClient requests round-robin over the warmed workload.
// The fleet is sized to stress admission and the cache hot path, not
// the synthesis engine — replay requests are hits.
const (
	serveClients           = 1000
	serveRequestsPerClient = 4
)

// serveWorkload builds the distinct /synthesize request bodies: every
// benchmark example synthesized at its critical path and at two relaxed
// schedules (cp, cp+1, cp+2 — always feasible, unlike the paper's T
// values, which can undershoot a graph's cycle-accurate critical
// path). Each (graph, cs) pair is one cache entry.
func serveWorkload() ([][]byte, error) {
	var reqs [][]byte
	for _, ex := range benchmarks.All() {
		gj, err := dfgio.EncodeGraph(ex.Graph)
		if err != nil {
			return nil, err
		}
		cp := ex.Graph.CriticalPathCycles()
		for _, cs := range []int{cp, cp + 1, cp + 2} {
			body, err := json.Marshal(&serve.SynthesizeRequest{
				Graph:  gj,
				Config: serve.ConfigJSON{CS: cs},
			})
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, body)
		}
	}
	return reqs, nil
}

// MeasureServeCtx measures the `hlsbench -serve` snapshot: a replay
// load test against a fresh in-process hlsd server. The workload warms
// every distinct request once (all cache misses), then replays the same
// requests from serveClients concurrent clients — the steady state a
// synthesis service sees, where almost everything is a cache hit. The
// snapshot pins the client-observed hit-path latency percentiles, the
// hit rate (every replay request repeats a warmed one, so anything
// below 1 means the cache dropped entries it had room for), and the
// byte-identity guarantee (a hit must return the exact bytes the miss
// produced). Every issued request carries ctx, so a cancelled
// measurement unwinds promptly.
func MeasureServeCtx(ctx context.Context) (*Snapshot, error) {
	return measureServe(ctx, serveClients, serveRequestsPerClient)
}

// measureServe is the harness body with the fleet shape as parameters,
// so tests can run a small fleet through the identical code path.
func measureServe(ctx context.Context, clients, perClient int) (*Snapshot, error) {
	srv := serve.New(serve.Options{
		CacheEntries: 4096,
		CacheBytes:   256 << 20,
	})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// One shared transport, enough idle connections that the fleet
	// reuses sockets instead of churning through ephemeral ports.
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
	}}
	defer client.CloseIdleConnections()

	work, err := serveWorkload()
	if err != nil {
		return nil, err
	}

	// Warm phase: every distinct request once, sequentially. All misses,
	// all real synthesis; the recorded bodies are the byte-identity
	// reference for the replay.
	warm := make([][]byte, len(work))
	warmT, err := bestOf(1, func() error {
		for i, rq := range work {
			body, _, err := serveDo(ctx, client, ts.URL, rq)
			if err != nil {
				return fmt.Errorf("warm #%d: %w", i, err)
			}
			warm[i] = body
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Replay phase: the concurrent fleet, round-robin over the warmed
	// requests. Each client records its own latencies and verdicts;
	// merge afterwards.
	type clientResult struct {
		lat       []float64
		hits      int
		identical bool
		err       error
	}
	results := make([]clientResult, clients)
	replayT, err := bestOf(1, func() error {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				res := clientResult{identical: true}
				for r := 0; r < perClient; r++ {
					i := (c*perClient + r) % len(work)
					start := time.Now()
					body, hit, err := serveDo(ctx, client, ts.URL, work[i])
					if err != nil {
						res.err = err
						break
					}
					res.lat = append(res.lat, millis(time.Since(start)))
					if hit {
						res.hits++
					}
					if !bytes.Equal(body, warm[i]) {
						res.identical = false
					}
				}
				results[c] = res
			}(c)
		}
		wg.Wait()
		for _, res := range results {
			if res.err != nil {
				return fmt.Errorf("replay: %w", res.err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var lat []float64
	hits, identical := 0, true
	for _, res := range results {
		lat = append(lat, res.lat...)
		hits += res.hits
		identical = identical && res.identical
	}
	sort.Float64s(lat)

	total := clients * perClient
	return newSnapshot("serve", []Metric{
		info("serve/clients", float64(clients), "clients", ""),
		info("serve/requests", float64(total), "requests", ""),
		info("serve/designs", float64(len(work)), "designs", ""),
		wall("serve/warm", warmT.wall),
		wall("serve/replay", replayT.wall),
		{Name: "serve/p50", Value: serve.Percentile(lat, 50), Unit: "ms", Better: "lower"},
		{Name: "serve/p99", Value: serve.Percentile(lat, 99), Unit: "ms", Better: "lower"},
		info("serve/throughput", float64(total)/replayT.wall.Seconds(), "1/s", "higher"),
		{Name: "serve/hit_rate", Value: float64(hits) / float64(total), Unit: "ratio", Better: "higher", Exact: true},
		verdict("serve/byte_identical", identical),
	}), nil
}

// serveDo posts one /synthesize body and returns the response body and
// the cache verdict. Non-200 statuses are errors carrying the body text.
func serveDo(ctx context.Context, client *http.Client, base string, body []byte) ([]byte, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/synthesize", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("/synthesize: status %d: %s", resp.StatusCode, buf.String())
	}
	return buf.Bytes(), resp.Header.Get("X-Hlsd-Cache") == "hit", nil
}
