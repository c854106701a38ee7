package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	hls "repro"
	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/dfgio"
	"repro/internal/library"
)

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts
}

func graphJSON(t *testing.T, ex *benchmarks.Example) json.RawMessage {
	t.Helper()
	b, err := dfgio.EncodeGraph(ex.Graph)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func post(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

func TestSynthesizeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	ex := benchmarks.Facet()
	req := SynthesizeRequest{
		Graph:   graphJSON(t, ex),
		Config:  ConfigJSON{CS: ex.TimeConstraints[0]},
		Netlist: true,
	}

	resp, body := post(t, ts.URL+"/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Hlsd-Cache"); got != "miss" {
		t.Errorf("first request cache header = %q, want miss", got)
	}
	var sr SynthesizeResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.CS != ex.TimeConstraints[0] || sr.Cost.Total <= 0 || sr.Cost.NumALUs <= 0 {
		t.Errorf("implausible response: %+v", sr)
	}
	if sr.Netlist == "" {
		t.Error("netlist requested but absent")
	}
	if sr.Hash == "" || sr.Fingerprint == "" {
		t.Error("hashes missing from response")
	}

	// Same request again: a hit, served byte-identically.
	resp2, body2 := post(t, ts.URL+"/synthesize", req)
	if got := resp2.Header.Get("X-Hlsd-Cache"); got != "hit" {
		t.Errorf("second request cache header = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("cache hit body differs from fresh synthesis body")
	}

	// Different response shaping must not share the cached bytes.
	req.Netlist = false
	resp3, body3 := post(t, ts.URL+"/synthesize", req)
	if got := resp3.Header.Get("X-Hlsd-Cache"); got != "miss" {
		t.Errorf("reshaped request cache header = %q, want miss", got)
	}
	if bytes.Equal(body, body3) {
		t.Error("netlist-free response shares bytes with netlist response")
	}
}

// TestCacheHitsByteIdentical32Clients is the concurrency contract under
// -race: after one cold synthesis, 32 concurrent clients replaying the
// same request must all receive bytes identical to the fresh response,
// and the cache must have served them without re-synthesis.
func TestCacheHitsByteIdentical32Clients(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	ex := benchmarks.Diffeq()
	req := SynthesizeRequest{
		Graph:    graphJSON(t, ex),
		Config:   ConfigJSON{CS: ex.TimeConstraints[0]},
		Schedule: true,
	}
	resp, fresh := post(t, ts.URL+"/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold request: status %d: %s", resp.StatusCode, fresh)
	}
	misses := s.Metrics().Cache.Misses

	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := json.Marshal(req)
			if err != nil {
				errs <- err
				return
			}
			resp, err := http.Post(ts.URL+"/synthesize", "application/json", bytes.NewReader(b))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out bytes.Buffer
			if _, err := out.ReadFrom(resp.Body); err != nil {
				errs <- err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, out.Bytes())
				return
			}
			if hdr := resp.Header.Get("X-Hlsd-Cache"); hdr != "hit" {
				errs <- fmt.Errorf("cache header = %q, want hit", hdr)
				return
			}
			if !bytes.Equal(out.Bytes(), fresh) {
				errs <- fmt.Errorf("response bytes differ from fresh synthesis")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := s.Metrics()
	if m.Cache.Hits < clients {
		t.Errorf("cache hits = %d, want >= %d", m.Cache.Hits, clients)
	}
	if m.Cache.Misses != misses {
		t.Errorf("cache misses grew from %d to %d during the replay", misses, m.Cache.Misses)
	}
}

// TestIsomorphicRequestsShareBucket: a renamed copy of a cached graph
// is served by fresh synthesis — its response embeds its own names — at
// the same cost, and its "hash" is its own entry key.
func TestIsomorphicRequestsShareBucket(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	ex := benchmarks.Facet()
	cfg := ConfigJSON{CS: ex.TimeConstraints[0]}

	_, body1 := post(t, ts.URL+"/synthesize", SynthesizeRequest{Graph: graphJSON(t, ex), Config: cfg})

	// Rename every primary input (quoted whole tokens, so the JSON keys
	// and the arg references stay consistent).
	renamed := graphJSON(t, ex)
	for i := 1; i <= 8; i++ {
		renamed = bytes.ReplaceAll(renamed,
			[]byte(fmt.Sprintf(`"i%d"`, i)), []byte(fmt.Sprintf(`"z%d"`, i)))
	}
	if bytes.Equal(renamed, graphJSON(t, ex)) {
		t.Fatal("rename had no effect")
	}
	resp2, body2 := post(t, ts.URL+"/synthesize", SynthesizeRequest{Graph: renamed, Config: cfg})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("renamed request: status %d: %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Hlsd-Cache"); got != "miss" {
		t.Errorf("renamed request cache header = %q, want miss (names differ)", got)
	}
	var r1, r2 SynthesizeResponse
	if err := json.Unmarshal(body1, &r1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &r2); err != nil {
		t.Fatal(err)
	}
	if r1.Hash == r2.Hash {
		t.Error("renamed graph shares a hash with the original")
	}
	if r1.Fingerprint == r2.Fingerprint {
		t.Error("renamed graph shares a fingerprint with the original")
	}
	if r1.Cost != r2.Cost {
		t.Errorf("isomorphic graphs cost differently: %+v != %+v", r1.Cost, r2.Cost)
	}
}

// TestConcurrentSweeps: concurrent /sweep requests, three rounds over
// three graphs, each get the points of a direct hls.Sweep of their
// graph.
func TestConcurrentSweeps(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	exs := []*benchmarks.Example{benchmarks.Facet(), benchmarks.Diffeq(), benchmarks.ARLattice()}
	const lo, hi = 1, 8

	type result struct {
		ex   *benchmarks.Example
		body []byte
		code int
	}
	results := make(chan result, 3*len(exs))
	var wg sync.WaitGroup
	for round := 0; round < 3; round++ {
		for _, ex := range exs {
			wg.Add(1)
			go func(ex *benchmarks.Example) {
				defer wg.Done()
				req := SweepRequest{Graph: graphJSON(t, ex), CsLo: lo, CsHi: hi}
				b, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(b))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var out bytes.Buffer
				out.ReadFrom(resp.Body)
				results <- result{ex, out.Bytes(), resp.StatusCode}
			}(ex)
		}
	}
	wg.Wait()
	close(results)

	for res := range results {
		if res.code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", res.ex.Name, res.code, res.body)
		}
		var sr SweepResponse
		if err := json.Unmarshal(res.body, &sr); err != nil {
			t.Fatal(err)
		}
		want, err := hls.Sweep(res.ex.Graph, core.Config{}, lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		if len(sr.Points) != len(want) {
			t.Fatalf("%s: %d points, want %d", res.ex.Name, len(sr.Points), len(want))
		}
		for i, p := range sr.Points {
			w := want[i]
			if p.CS != w.CS || p.Cost.Total != w.Cost.Total || p.Pareto != w.Pareto {
				t.Errorf("%s point %d: got %+v, want %+v", res.ex.Name, i, p, w)
			}
		}
	}
}

func TestSweepInfeasibleRangeRejectedAlone(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	ex := benchmarks.Facet() // critical path 4
	req := SweepRequest{Graph: graphJSON(t, ex), CsLo: 1, CsHi: 3}
	resp, body := post(t, ts.URL+"/sweep", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "critical path") {
		t.Errorf("error body %q does not name the critical path", body)
	}
}

// TestClockShorterThanDelay: a clock_ns below a single-cycle node's
// delay is the client's error, a 400 on every POST endpoint.
func TestClockShorterThanDelay(t *testing.T) {
	s := New(Options{})
	defer s.Close()
	h := s.Handler()
	gj := graphJSON(t, benchmarks.Facet()) // its mul has an 80 ns delay
	for ep, path := range postPaths {
		rec := serveOnce(h, path, postBody(t, ep, gj, ConfigJSON{CS: 4, ClockNs: 50}))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "exceeds clock") {
			t.Errorf("%s: status %d, want 400 naming the clock: %s", path, rec.Code, rec.Body)
		}
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	ex := benchmarks.Facet()
	cases := []struct {
		name string
		req  SynthesizeRequest
	}{
		{"neither graph nor source", SynthesizeRequest{Config: ConfigJSON{CS: 4}}},
		{"both graph and source", SynthesizeRequest{
			Graph: graphJSON(t, ex), Source: "out y\ny = a + b\n", Config: ConfigJSON{CS: 4}}},
		{"malformed graph", SynthesizeRequest{Graph: json.RawMessage(`{"nodes": 3}`), Config: ConfigJSON{CS: 4}}},
		{"too many weights", SynthesizeRequest{
			Graph: graphJSON(t, ex), Config: ConfigJSON{CS: 4, Weights: []float64{1, 2, 3, 4, 5}}}},
	}
	for _, tc := range cases {
		resp, body := post(t, ts.URL+"/synthesize", tc.req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, body)
		}
	}

	getResp, err := http.Get(ts.URL + "/synthesize")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /synthesize: status %d, want 405", getResp.StatusCode)
	}
}

func TestSynthesizeFromSource(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	src := "design fromsrc\ninput a, b, c\ny = a * b + c\n"
	req := SynthesizeRequest{Source: src, Config: ConfigJSON{CS: 4}}
	resp, body := post(t, ts.URL+"/synthesize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	resp2, body2 := post(t, ts.URL+"/synthesize", req)
	if got := resp2.Header.Get("X-Hlsd-Cache"); got != "hit" {
		t.Errorf("repeat source request cache header = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("source-request hit bytes differ")
	}
}

func TestCertifyEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	ex := benchmarks.Facet()
	req := SynthesizeRequest{Graph: graphJSON(t, ex), Config: ConfigJSON{CS: ex.TimeConstraints[0]}}
	resp, body := post(t, ts.URL+"/certify", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr CertifyResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	var cert struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(cr.Certificate, &cert); err != nil {
		t.Fatal(err)
	}
	if cert.Status != "certified" {
		t.Errorf("certificate status = %q, want certified (%s)", cert.Status, cr.Certificate)
	}
}

// TestQueueBounds exercises the admission control: with one worker slot
// held, one request may wait, and the next is refused, on every POST
// endpoint as on a direct acquire.
func TestQueueBounds(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	defer s.Close()

	release, err := s.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	waited := make(chan error, 1)
	go func() {
		// Occupies the single queue space until the slot frees.
		rel, err := s.acquire(context.Background())
		if err == nil {
			rel()
		}
		waited <- err
	}()

	// Give the waiter time to enter the queue, then overflow it.
	deadline := time.Now().Add(time.Second)
	for s.queued.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.acquire(context.Background()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow acquire: err = %v, want ErrQueueFull", err)
	}
	gj := graphJSON(t, benchmarks.Facet())
	for ep, path := range postPaths {
		if rec := serveOnce(s.Handler(), path, postBody(t, ep, gj, ConfigJSON{CS: 4})); rec.Code != http.StatusServiceUnavailable {
			t.Errorf("%s with the queue full: status %d, want 503: %s", path, rec.Code, rec.Body)
		}
	}

	release()
	if err := <-waited; err != nil {
		t.Fatalf("queued acquire failed after slot freed: %v", err)
	}
}

// TestShutdownCancelsQueued is the drain criterion: a request waiting
// in the queue observes Close and fails out in well under 100ms.
func TestShutdownCancelsQueued(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 4})
	release, err := s.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()

	waited := make(chan error, 1)
	go func() {
		_, err := s.acquire(context.Background())
		waited <- err
	}()
	deadline := time.Now().Add(time.Second)
	for s.queued.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	s.Close()
	select {
	case err := <-waited:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("queued request err = %v, want context.Canceled", err)
		}
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("queued request took %v to observe Close, want < 100ms", d)
		}
	case <-time.After(time.Second):
		t.Fatal("queued request never observed Close")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	ex := benchmarks.Facet()
	post(t, ts.URL+"/synthesize", SynthesizeRequest{
		Graph: graphJSON(t, ex), Config: ConfigJSON{CS: ex.TimeConstraints[0]}})

	resp, body := func() (*http.Response, []byte) {
		r, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var out bytes.Buffer
		out.ReadFrom(r.Body)
		return r, out.Bytes()
	}()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var m Metrics
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.Requests["synthesize"] != 1 {
		t.Errorf("synthesize requests = %d, want 1", m.Requests["synthesize"])
	}
	if m.Cache.Misses != 1 || m.Cache.Entries != 1 {
		t.Errorf("cache stats = %+v, want 1 miss / 1 entry", m.Cache)
	}
	if m.Served == 0 {
		t.Error("latency sample count is zero after a served request")
	}
}

// TestPercentile pins the nearest-rank definition behind the /metrics
// latency percentiles and the hlsbench -serve replay: index ⌈p·n/100⌉−1,
// so a percentile never reads one rank high when p·n/100 is whole.
func TestPercentile(t *testing.T) {
	oneTo100 := make([]float64, 100)
	for i := range oneTo100 {
		oneTo100[i] = float64(i + 1)
	}
	cases := []struct {
		name   string
		sorted []float64
		p      float64
		want   float64
	}{
		{"p50 of 1..100", oneTo100, 50, 50},
		{"p99 of 1..100", oneTo100, 99, 99},
		{"p100 of 1..100", oneTo100, 100, 100},
		{"p50 of even length", []float64{1, 2, 3, 4}, 50, 2},
		{"p50 of odd length", []float64{1, 2, 3}, 50, 2},
		{"p99 of one sample", []float64{7}, 99, 7},
		{"empty", nil, 50, 0},
	}
	for _, c := range cases {
		if got := Percentile(c.sorted, c.p); got != c.want {
			t.Errorf("%s: Percentile(_, %v) = %v, want %v", c.name, c.p, got, c.want)
		}
	}
}

// aliased reports whether body's bytes are a front key of s's cache.
func aliased(s *Server, body []byte) bool {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	_, ok := s.cache.fronts[frontKey("synthesize", body)]
	return ok
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCacheSemantics walks /synthesize request sequences through the
// front key and the entry key. After every step it checks the status,
// the verdict, the body against an earlier step's, the alias map, and
// that every cacheable request counted exactly one hit or one miss.
func TestCacheSemantics(t *testing.T) {
	ex := benchmarks.Facet()
	gj := graphJSON(t, ex)
	cfg := ConfigJSON{CS: ex.TimeConstraints[0]}
	plain := mustMarshal(t, SynthesizeRequest{Graph: gj, Config: cfg})
	reencoded := reencode(t, gj, cfg)
	withTimeout := mustMarshal(t, SynthesizeRequest{Graph: gj, Config: ConfigJSON{CS: cfg.CS, TimeoutMs: 60_000}})
	withNetlist := mustMarshal(t, SynthesizeRequest{Graph: gj, Config: cfg, Netlist: true})
	renamed := bytes.ReplaceAll(plain, []byte(`"i1"`), []byte(`"z1"`))
	if bytes.Equal(renamed, plain) {
		t.Fatal("rename had no effect")
	}

	type step struct {
		name    string
		body    []byte
		status  int
		verdict string   // "" for a request refused before the cache
		sameAs  int      // earlier step whose body this one repeats; -1 for none
		dropped [][]byte // bodies whose alias must be gone after the step
	}
	for _, sc := range []struct {
		name    string
		opts    Options
		steps   []step
		entries int
	}{
		{"front and entry keys", Options{}, []step{
			{"first send", plain, 200, "miss", -1, nil},
			{"byte-identical repeat", plain, 200, "hit", 0, nil},
			{"re-encoded: front miss, entry hit", reencoded, 200, "hit", 0, [][]byte{plain}},
			{"re-encoded again: through the re-pointed alias", reencoded, 200, "hit", 0, nil},
			{"timeout_ms differs", withTimeout, 200, "hit", 0, [][]byte{reencoded}},
			{"netlist flipped", withNetlist, 200, "miss", -1, nil},
			{"malformed body", []byte(`{"graph": `), 400, "", -1, nil},
		}, 2},
		{"eviction drops the alias", Options{CacheEntries: 1}, []step{
			{"first send", plain, 200, "miss", -1, nil},
			{"another request evicts it", withNetlist, 200, "miss", -1, [][]byte{plain}},
			{"evicted bytes re-synthesize", plain, 200, "miss", 0, [][]byte{withNetlist}},
		}, 1},
		{"isomorphic rename", Options{}, []step{
			{"original", plain, 200, "miss", -1, nil},
			{"renamed", renamed, 200, "miss", -1, nil},
		}, 2},
	} {
		t.Run(sc.name, func(t *testing.T) {
			s := New(sc.opts)
			defer s.Close()
			h := s.Handler()
			bodies := make([][]byte, len(sc.steps))
			cacheable := uint64(0)
			for i, st := range sc.steps {
				rec := serveOnce(h, "/synthesize", st.body)
				bodies[i] = rec.Body.Bytes()
				if rec.Code != st.status {
					t.Fatalf("%s: status %d, want %d: %s", st.name, rec.Code, st.status, rec.Body)
				}
				if got := rec.Header().Get("X-Hlsd-Cache"); got != st.verdict {
					t.Errorf("%s: verdict %q, want %q", st.name, got, st.verdict)
				}
				if st.sameAs >= 0 && !bytes.Equal(bodies[i], bodies[st.sameAs]) {
					t.Errorf("%s: body differs from step %q", st.name, sc.steps[st.sameAs].name)
				}
				if st.verdict != "" {
					cacheable++
				}
				if got := aliased(s, st.body); got != (st.verdict != "") {
					t.Errorf("%s: aliased = %v after the step", st.name, got)
				}
				for _, b := range st.dropped {
					if aliased(s, b) {
						t.Errorf("%s: an earlier request's alias survived", st.name)
					}
				}
				c := s.Metrics().Cache
				if c.Hits+c.Misses != cacheable {
					t.Errorf("%s: %d hits + %d misses, want %d cacheable requests", st.name, c.Hits, c.Misses, cacheable)
				}
				s.cache.mu.Lock()
				aliases := len(s.cache.fronts)
				s.cache.mu.Unlock()
				if aliases > c.Entries {
					t.Errorf("%s: %d aliases for %d entries", st.name, aliases, c.Entries)
				}
			}
			if c := s.Metrics().Cache; c.Entries != sc.entries {
				t.Errorf("cache holds %d entries, want %d", c.Entries, sc.entries)
			}
		})
	}
}

// spaces is a body of n bytes of JSON whitespace, streamed without a
// Content-Length.
type spaces struct{ n int64 }

func (r *spaces) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	p = p[:min(int64(len(p)), r.n)]
	for i := range p {
		p[i] = ' '
	}
	r.n -= int64(len(p))
	return len(p), nil
}

// TestBodyTooLarge streams one byte over the body cap: the request is
// refused with 413 and the usual JSON error body, never a 500, and
// counts neither a hit nor a miss. It reads 64 MiB into one buffer,
// which the race detector's shadow memory grows past 1 GB; readBody
// runs on the request's goroutine alone, so the plain run covers it.
func TestBodyTooLarge(t *testing.T) {
	if raceEnabled {
		t.Skip("a 64 MiB body costs over 1 GB under the race detector")
	}
	s := New(Options{})
	defer s.Close()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/synthesize", &spaces{n: maxBodyBytes + 1}))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %.200s", rec.Code, rec.Body)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("error body %q: %v", rec.Body, err)
	}
	if c := s.Metrics().Cache; c.Hits+c.Misses != 0 {
		t.Errorf("refused body counted %d hits, %d misses", c.Hits, c.Misses)
	}
}

// TestBadConfigIsBadRequest sends POST /synthesize the configs the
// engines refuse with a typed error — negative instance limits, unit
// caps no schedule at the critical path fits, a folded loop for MFSA,
// and the values no run can honor: a limit on an op symbol, style 7, a
// negative clock or latency, a clock whose span overflows, a latency
// above cs and an unknown pipelined op — and wants a 400 naming the
// cause, not a 500.
func TestBadConfigIsBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	ex := benchmarks.Diffeq()
	units := map[string]int{}
	for _, u := range library.NCRLike().Units() {
		units[u.Name] = 1
	}
	loop := "design smoother\ninput start, coeff\nloop smooth cycles 2 binds acc = start, d = coeff yields nxt {\n" +
		"    half = acc >> 1\n    nxt = half + d\n}\nfinal = smooth * 3\n"
	for _, tc := range []struct {
		name string
		req  SynthesizeRequest
		want string
	}{
		{"negative unit limit", SynthesizeRequest{Graph: graphJSON(t, ex), Config: ConfigJSON{CS: 4, Limits: map[string]int{"fu_mul": -3}}}, `fu_mul`},
		{"negative op limit", SynthesizeRequest{Graph: graphJSON(t, ex), Config: ConfigJSON{CS: 4, Limits: map[string]int{"*": -1}}}, `\"*\"`},
		{"no position", SynthesizeRequest{Graph: graphJSON(t, ex), Config: ConfigJSON{CS: 4, Limits: units}}, "no position"},
		{"loop", SynthesizeRequest{Source: loop, Config: ConfigJSON{CS: 4}}, "fold loops"},
		{"op-symbol limit", SynthesizeRequest{Graph: graphJSON(t, ex), Config: ConfigJSON{CS: 6, Limits: map[string]int{"*": 1}}}, "no such FU type"},
		{"style 7", SynthesizeRequest{Graph: graphJSON(t, ex), Config: ConfigJSON{CS: 4, Style: 7}}, "config Style"},
		{"negative clock", SynthesizeRequest{Graph: graphJSON(t, ex), Config: ConfigJSON{CS: 4, ClockNs: -5}}, "config ClockNs"},
		{"overflowing clock", SynthesizeRequest{Graph: graphJSON(t, ex), Config: ConfigJSON{CS: 4, ClockNs: 1e308}}, "config ClockNs"},
		{"negative latency", SynthesizeRequest{Graph: graphJSON(t, ex), Config: ConfigJSON{CS: 4, Latency: -1}}, "config Latency"},
		{"latency above cs", SynthesizeRequest{Graph: graphJSON(t, ex), Config: ConfigJSON{CS: 4, Latency: 9}}, "config Latency"},
		{"unknown pipelined op", SynthesizeRequest{Graph: graphJSON(t, ex), Config: ConfigJSON{CS: 4, PipelinedOps: []string{"%%"}}}, "config PipelinedOps"},
	} {
		resp, body := post(t, ts.URL+"/synthesize", tc.req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: status %d: %s", tc.name, resp.StatusCode, body)
		}
	}
	// A sweep checks the latency against each point's time constraint.
	resp, body := post(t, ts.URL+"/sweep", SweepRequest{Graph: graphJSON(t, ex), CsLo: 4, CsHi: 6, Config: ConfigJSON{Latency: 9}})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "config Latency") {
		t.Errorf("sweep latency above every cs: status %d: %s", resp.StatusCode, body)
	}
}
