// Package serve is the synthesis-as-a-service daemon behind cmd/hlsd:
// an HTTP/JSON front end over the public hls façade with a
// content-addressed result cache, so identical requests are answered
// from memory instead of re-synthesized.
//
// Endpoints:
//
//   - POST /synthesize — one graph (dfgio JSON) or behavioral source,
//     synthesized under the request config; optional netlist/schedule
//     in the response.
//   - POST /sweep — one graph plus a [cs_lo, cs_hi] range, swept by
//     hls.SweepCtx on one worker slot that fans the points out across
//     the machine.
//   - POST /certify — synthesize, then run the translation-validation
//     pass and return the lint certificate.
//   - GET /metrics — request, cache, queue, and latency counters.
//
// Caching: each POST body is read once, up to maxBodyBytes, and keyed
// by SHA-256 over the endpoint name and the raw bytes — the front key.
// A request that repeats an earlier successful request byte for byte is
// answered from the stored body with no JSON decode, no graph build and
// no graph hashing. On a front-key miss the request is decoded and
// keyed by canon.Fingerprint mixed with the endpoint and its
// response-shaping options (strict byte identity — responses embed
// names, so only requests that would produce the very same bytes share
// an entry); an entry hit re-points the entry's front alias to the new
// bytes. Every response embeds its entry key as "hash". A hit does no
// synthesis work; the X-Hlsd-Cache response header says "hit" or "miss"
// so the body itself stays byte-identical either way. Eviction is LRU
// with entry-count and total-byte knobs.
//
// Bounded work: at most Options.Workers requests synthesize at once; up
// to Options.QueueDepth more wait in line, and everything beyond that
// is refused immediately with 503. Every handler runs under
// guard.Recover, and every unit of work runs under a context that is
// cancelled by client disconnect, the per-request deadline, or server
// Close — in-queue requests observe Close within milliseconds.
package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	hls "repro"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dfgio"
	"repro/internal/guard"
	"repro/internal/pool"
	"repro/internal/sched"
)

// Options configures a Server. The zero value selects the defaults
// noted on each field.
type Options struct {
	// Workers bounds concurrent synthesis work (default: pool.Size(0),
	// the machine's GOMAXPROCS). A /sweep occupies one worker and fans
	// its points out across the machine.
	Workers int

	// QueueDepth bounds how many requests may wait for a worker before
	// new arrivals are refused with 503 (default 64).
	QueueDepth int

	// CacheEntries and CacheBytes are the LRU eviction knobs
	// (defaults 1024 entries, 64 MiB). Zero selects the default;
	// negative disables that knob.
	CacheEntries int
	CacheBytes   int64

	// DefaultTimeout bounds each request's synthesis work when the
	// request config carries no timeout of its own (default 60s).
	DefaultTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = pool.Size(0)
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 1024
	} else if o.CacheEntries < 0 {
		o.CacheEntries = 0 // unbounded
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = 64 << 20
	} else if o.CacheBytes < 0 {
		o.CacheBytes = 0 // unbounded
	}
	if o.DefaultTimeout == 0 {
		o.DefaultTimeout = 60 * time.Second
	}
	return o
}

// ErrQueueFull is returned (as a 503) when a request arrives while
// QueueDepth requests are already waiting for a worker.
var ErrQueueFull = errors.New("serve: request queue full")

// Server is the daemon state: cache, worker slots, and counters. Create
// with New, mount Handler on an http.Server, and call Close to drain.
type Server struct {
	opts     Options
	ctx      context.Context // done when Close is called
	cancel   context.CancelFunc
	sem      chan struct{} // worker slots
	queued   atomic.Int64
	inFlight atomic.Int64
	cache    *cache
	mux      *http.ServeMux

	mu       sync.Mutex
	requests map[string]uint64
	errs     map[string]uint64
	lat      []float64 // latency ring, milliseconds
	latNext  int
	latCount uint64
}

// latRing bounds the latency sample buffer the percentiles are computed
// over; older samples are overwritten.
const latRing = 8192

// New builds a Server with opts resolved to their defaults.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:     opts,
		ctx:      ctx,
		cancel:   cancel,
		sem:      make(chan struct{}, opts.Workers),
		cache:    newCache(opts.CacheEntries, opts.CacheBytes),
		requests: make(map[string]uint64),
		errs:     make(map[string]uint64),
		lat:      make([]float64, 0, latRing),
	}
	mux := http.NewServeMux()
	mux.Handle("/synthesize", s.cachedEndpoint("synthesize", decodeSynthesize))
	mux.Handle("/sweep", s.cachedEndpoint("sweep", decodeSweep))
	mux.Handle("/certify", s.cachedEndpoint("certify", decodeCertify))
	mux.Handle("/metrics", s.endpoint("metrics", http.MethodGet, s.handleMetrics))
	s.mux = mux
	return s
}

// Handler returns the daemon's HTTP handler, ready to mount on an
// http.Server (or httptest.Server).
func (s *Server) Handler() http.Handler { return s.mux }

// Close cancels every queued and in-flight request's context. Requests
// waiting for a worker return immediately with 503; in-flight synthesis
// unwinds at its next cancellation poll. Close is idempotent.
func (s *Server) Close() { s.cancel() }

// --- request plumbing -------------------------------------------------

// httpError pins a status code onto an error at the point where the
// failure is classified (e.g. a malformed request body is a 400 no
// matter what text it carries).
type httpError struct {
	code int
	err  error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

func badRequest(err error) error {
	return &httpError{code: http.StatusBadRequest, err: err}
}

// endpoint wraps a handler with the shared per-request discipline:
// method check, panic recovery (guard.Recover, so a handler bug is a
// 500, not a dead daemon), error-to-status mapping, and request/latency
// accounting.
func (s *Server) endpoint(name, method string, fn func(w http.ResponseWriter, r *http.Request) error) http.Handler {
	op := "serve " + name
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.count(s.requests, name)
		err := func() (err error) {
			defer guard.Recover(op, &err)
			if r.Method != method {
				return &httpError{code: http.StatusMethodNotAllowed,
					err: fmt.Errorf("method %s not allowed; use %s", r.Method, method)}
			}
			return fn(w, r)
		}()
		if err != nil {
			s.count(s.errs, name)
			writeError(w, err)
		}
		s.observe(time.Since(start))
	})
}

// writeError maps a handler error onto a status code and a JSON body.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var mb *http.MaxBytesError
	var he *httpError
	var re *guard.RangeError
	var le *guard.LimitError
	var cfe *guard.ConfigError
	var ie *sched.InfeasibleError
	var ce *sched.ClockError
	var pe *sched.NoPositionError
	var ue *sched.LoopError
	switch {
	case errors.As(err, &mb):
		code = http.StatusRequestEntityTooLarge
	case errors.As(err, &he):
		code = he.code
	case errors.As(err, &re), errors.As(err, &le), errors.As(err, &cfe), errors.As(err, &ie), errors.As(err, &ce),
		errors.As(err, &pe), errors.As(err, &ue):
		code = http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled):
		code = http.StatusServiceUnavailable // shutdown or client gone
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(body)
}

// requestCtx derives the context one request's work runs under: child
// of the request context (cancelled on client disconnect), cancelled by
// server Close, and bounded by the default deadline. Request configs
// with their own Timeout tighten this further inside core.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.ctx, cancel)
	ctx, cancelT := context.WithTimeout(ctx, s.opts.DefaultTimeout)
	return ctx, func() { stop(); cancelT(); cancel() }
}

// acquire claims a worker slot, waiting in the bounded queue. It fails
// fast with ErrQueueFull when the queue is at capacity, and returns the
// context error as soon as ctx or the server is done — a queued request
// never outlives Close.
func (s *Server) acquire(ctx context.Context) (release func(), err error) {
	select {
	case s.sem <- struct{}{}: // free slot: no queueing at all
		s.inFlight.Add(1)
		return func() { s.inFlight.Add(-1); <-s.sem }, nil
	default:
	}
	if s.queued.Add(1) > int64(s.opts.QueueDepth) {
		s.queued.Add(-1)
		return nil, ErrQueueFull
	}
	defer s.queued.Add(-1)
	select {
	case s.sem <- struct{}{}:
		s.inFlight.Add(1)
		return func() { s.inFlight.Add(-1); <-s.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	case <-s.ctx.Done():
		return nil, s.ctx.Err()
	}
}

func (s *Server) count(m map[string]uint64, name string) {
	s.mu.Lock()
	m[name]++
	s.mu.Unlock()
}

func (s *Server) observe(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	s.mu.Lock()
	if len(s.lat) < latRing {
		s.lat = append(s.lat, ms)
	} else {
		s.lat[s.latNext] = ms
		s.latNext = (s.latNext + 1) % latRing
	}
	s.latCount++
	s.mu.Unlock()
}

// --- wire types -------------------------------------------------------

// ConfigJSON is the wire form of core.Config. Parallelism is absent by
// design — the server owns its concurrency budget — and Timeout is a
// millisecond count so configs stay plain JSON numbers.
type ConfigJSON struct {
	CS             int            `json:"cs,omitempty"`
	Limits         map[string]int `json:"limits,omitempty"`
	ClockNs        float64        `json:"clock_ns,omitempty"`
	Latency        int            `json:"latency,omitempty"`
	PipelinedOps   []string       `json:"pipelined_ops,omitempty"`
	Style          int            `json:"style,omitempty"`
	Weights        []float64      `json:"weights,omitempty"`
	RegisterInputs bool           `json:"register_inputs,omitempty"`
	Optimize       bool           `json:"optimize,omitempty"`
	Lint           bool           `json:"lint,omitempty"`
	NoTrace        bool           `json:"no_trace,omitempty"`
	TimeoutMs      int            `json:"timeout_ms,omitempty"`
	MaxNodes       int            `json:"max_nodes,omitempty"`
	MaxCSteps      int            `json:"max_csteps,omitempty"`
}

func (c ConfigJSON) toCore() (core.Config, error) {
	if len(c.Weights) > 4 {
		return core.Config{}, badRequest(fmt.Errorf("config: %d weights, want at most 4", len(c.Weights)))
	}
	var w [4]float64
	copy(w[:], c.Weights)
	return core.Config{
		CS:             c.CS,
		Limits:         c.Limits,
		ClockNs:        c.ClockNs,
		Latency:        c.Latency,
		PipelinedOps:   c.PipelinedOps,
		Style:          c.Style,
		Weights:        w,
		RegisterInputs: c.RegisterInputs,
		Optimize:       c.Optimize,
		Lint:           c.Lint,
		NoTrace:        c.NoTrace,
		Timeout:        time.Duration(c.TimeoutMs) * time.Millisecond,
		MaxNodes:       c.MaxNodes,
		MaxCSteps:      c.MaxCSteps,
		Parallelism:    1, // one worker slot = one sequential synthesis
	}, nil
}

// CostJSON is the wire form of rtl.Cost.
type CostJSON struct {
	ALUArea      float64 `json:"alu_area"`
	MuxArea      float64 `json:"mux_area"`
	RegArea      float64 `json:"reg_area"`
	Total        float64 `json:"total"`
	NumALUs      int     `json:"num_alus"`
	NumRegs      int     `json:"num_regs"`
	NumMux       int     `json:"num_mux"`
	NumMuxInputs int     `json:"num_mux_inputs"`
}

func costJSON(c hls.Cost) CostJSON {
	return CostJSON{
		ALUArea: c.ALUArea, MuxArea: c.MuxArea, RegArea: c.RegArea, Total: c.Total,
		NumALUs: c.NumALUs, NumRegs: c.NumRegs, NumMux: c.NumMux, NumMuxInputs: c.NumMuxInputs,
	}
}

// SynthesizeRequest is the /synthesize (and /certify) request body:
// exactly one of Graph (dfgio graph JSON) or Source (behavioral text).
type SynthesizeRequest struct {
	Graph    json.RawMessage `json:"graph,omitempty"`
	Source   string          `json:"source,omitempty"`
	Config   ConfigJSON      `json:"config"`
	Netlist  bool            `json:"netlist,omitempty"`
	Schedule bool            `json:"schedule,omitempty"`
}

// SynthesizeResponse is the /synthesize response body.
type SynthesizeResponse struct {
	Hash        string          `json:"hash"`
	Fingerprint string          `json:"fingerprint"`
	Design      string          `json:"design"`
	CS          int             `json:"cs"`
	Cost        CostJSON        `json:"cost"`
	Netlist     string          `json:"netlist,omitempty"`
	Schedule    json.RawMessage `json:"schedule,omitempty"`
}

// SweepRequest is the /sweep request body: one graph, one range.
type SweepRequest struct {
	Graph  json.RawMessage `json:"graph"`
	CsLo   int             `json:"cs_lo"`
	CsHi   int             `json:"cs_hi"`
	Config ConfigJSON      `json:"config"`
}

// SweepPointJSON is one design point of a /sweep response.
type SweepPointJSON struct {
	CS     int      `json:"cs"`
	Cost   CostJSON `json:"cost"`
	ALUs   string   `json:"alus,omitempty"`
	Pareto bool     `json:"pareto"`
}

// SweepResponse is the /sweep response body.
type SweepResponse struct {
	Hash   string           `json:"hash"`
	Design string           `json:"design"`
	Points []SweepPointJSON `json:"points"`
}

// CertifyResponse is the /certify response body; the certificate is
// lint.Certificate's own JSON form.
type CertifyResponse struct {
	Hash        string          `json:"hash"`
	Certificate json.RawMessage `json:"certificate"`
}

// Metrics is the /metrics response body.
type Metrics struct {
	Requests     map[string]uint64 `json:"requests"`
	Errors       map[string]uint64 `json:"errors"`
	Cache        CacheStats        `json:"cache"`
	InFlight     int64             `json:"in_flight"`
	Queued       int64             `json:"queued"`
	LatencyP50Ms float64           `json:"latency_p50_ms"`
	LatencyP99Ms float64           `json:"latency_p99_ms"`
	Served       uint64            `json:"served"`
}

// --- request keys -----------------------------------------------------

// maxBodyBytes caps a POST body; a longer one is refused with 413
// before any of it is decoded. A compact 100k-node dfgio graph (the
// guard.DefaultMaxNodes budget) is 7.9 MB, and 15.5 MB indented.
const maxBodyBytes = 64 << 20

// bodyPresize caps the buffer readBody sizes from a declared
// Content-Length: a typical body is read into one allocation, while a
// header alone cannot make the daemon allocate the whole body cap.
const bodyPresize = 1 << 20

// readBody reads a POST body whole. A body longer than maxBodyBytes
// fails with an *http.MaxBytesError, which writeError maps to 413.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 {
		buf.Grow(int(min(n, bodyPresize)) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		return nil, badRequest(fmt.Errorf("request body: %w", err))
	}
	return buf.Bytes(), nil
}

// frontKey is the cache key of a request's raw bytes: SHA-256 over the
// endpoint name and the body, so a /synthesize body and an identical
// /certify body never share an alias. It is computed from untrusted
// bytes, so it must be collision-resistant: a collision would serve one
// client another client's body.
func frontKey(endpoint string, body []byte) canon.Hash {
	return mixKey(canon.Hash{}, []byte(endpoint), body)
}

// decoded is a parsed request payload: the graph, its config, and the
// fingerprint basis of its entry key.
type decoded struct {
	graph  *dfg.Graph
	cfg    core.Config
	strict canon.Hash
}

// decodeRequest parses the graph-or-source payload and computes its
// fingerprint. For source requests the strict key hashes the source
// text itself (the built graph embeds interned literals whose values
// the graph fingerprint alone would not cover).
func decodeRequest(graphJSON json.RawMessage, source string, cj ConfigJSON) (*decoded, error) {
	cfg, err := cj.toCore()
	if err != nil {
		return nil, err
	}
	var g *dfg.Graph
	var strict canon.Hash
	switch {
	case len(graphJSON) > 0 && source != "":
		return nil, badRequest(errors.New("request carries both graph and source; send one"))
	case len(graphJSON) > 0:
		g, err = dfgio.DecodeGraph(graphJSON)
		if err != nil {
			return nil, badRequest(err)
		}
		strict, err = canon.Fingerprint(g, cfg.Lib, cfg)
		if err != nil {
			return nil, badRequest(err)
		}
	case source != "":
		g, _, err = hls.ParseBehavior(source)
		if err != nil {
			return nil, badRequest(err)
		}
		fp, err := canon.Fingerprint(g, cfg.Lib, cfg)
		if err != nil {
			return nil, badRequest(err)
		}
		strict = mixKey(fp, []byte("source"), []byte(source))
	default:
		return nil, badRequest(errors.New("request carries neither graph nor source"))
	}
	return &decoded{graph: g, cfg: cfg, strict: strict}, nil
}

// mixKey derives an entry key from the strict fingerprint plus the
// endpoint- and option-specific parts that shape the response bytes.
func mixKey(fp canon.Hash, parts ...[]byte) canon.Hash {
	h := sha256.New()
	h.Write(fp[:])
	var n [8]byte
	for _, p := range parts {
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	var out canon.Hash
	h.Sum(out[:0])
	return out
}

func u64bytes(vs ...uint64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.BigEndian.AppendUint64(b, v)
	}
	return b
}

// --- handlers ---------------------------------------------------------

// produceFunc builds an endpoint's response on an entry miss, holding a
// worker slot.
type produceFunc func(ctx context.Context) (any, error)

// pending is a request that missed the front key, decoded: the entry key
// of its response, and how to produce that response on an entry miss.
type pending struct {
	entry   canon.Hash
	produce produceFunc
}

// cachedEndpoint is a POST endpoint answered through the cache; decode
// parses its body, validates it and keys it.
func (s *Server) cachedEndpoint(name string, decode func(body []byte) (*pending, error)) http.Handler {
	return s.endpoint(name, http.MethodPost, func(w http.ResponseWriter, r *http.Request) error {
		return s.serveCached(w, r, name, decode)
	})
}

// serveCached answers one cacheable POST. The body is read once and
// looked up by its front key; a hit is written straight from the stored
// bytes. Otherwise decode parses it and the entry key decides: a hit is
// written from the entry, whose alias now points at these bytes; a miss
// takes a worker slot, runs produce, stores the exact bytes written,
// and answers with them. A failed request is never cached.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, name string,
	decode func(body []byte) (*pending, error)) error {
	body, err := readBody(w, r)
	if err != nil {
		return err
	}
	front := frontKey(name, body)
	if out, ok := s.cache.getFront(front); ok {
		writeCached(w, out, "hit")
		return nil
	}
	p, err := decode(body)
	if err != nil {
		return err
	}
	if out, ok := s.cache.get(p.entry, front); ok {
		writeCached(w, out, "hit")
		return nil
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	resp, err := func() (any, error) {
		release, err := s.acquire(ctx)
		if err != nil {
			return nil, err
		}
		defer release() // the slot is free before the response is written
		return p.produce(ctx)
	}()
	if err != nil {
		return err
	}
	out, err := json.Marshal(resp)
	if err != nil {
		return err
	}
	s.cache.put(p.entry, front, out)
	writeCached(w, out, "miss")
	return nil
}

// writeCached writes a 200 response body with its cache verdict in the
// X-Hlsd-Cache header, so hit and miss bodies stay byte-identical.
func writeCached(w http.ResponseWriter, body []byte, verdict string) {
	w.Header().Set("X-Hlsd-Cache", verdict)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func decodeBody[T any](body []byte) (*T, error) {
	var req T
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, badRequest(fmt.Errorf("request body: %w", err))
	}
	return &req, nil
}

// decodeDesign decodes a /synthesize or /certify body: one design and
// the time constraint to synthesize it under.
func decodeDesign(body []byte) (*SynthesizeRequest, *decoded, error) {
	req, err := decodeBody[SynthesizeRequest](body)
	if err != nil {
		return nil, nil, err
	}
	d, err := decodeRequest(req.Graph, req.Source, req.Config)
	if err != nil {
		return nil, nil, err
	}
	if req.Config.CS < 1 {
		return nil, nil, badRequest(fmt.Errorf("config: cs %d: synthesis needs a time constraint of at least 1 step", req.Config.CS))
	}
	return req, d, nil
}

func decodeSynthesize(body []byte) (*pending, error) {
	req, d, err := decodeDesign(body)
	if err != nil {
		return nil, err
	}
	entry := mixKey(d.strict, []byte("synthesize"), u64bytes(b2u(req.Netlist), b2u(req.Schedule)))
	return &pending{entry: entry, produce: func(ctx context.Context) (any, error) {
		design, err := hls.SynthesizeCtx(ctx, d.graph, d.cfg)
		if err != nil {
			return nil, err
		}
		resp := &SynthesizeResponse{
			Hash:        entry.String(),
			Fingerprint: d.strict.String(),
			Design:      design.Graph.Name,
			CS:          design.Schedule.CS,
			Cost:        costJSON(design.Cost),
		}
		if req.Netlist {
			nl, err := design.Netlist()
			if err != nil {
				return nil, err
			}
			resp.Netlist = nl
		}
		if req.Schedule {
			sj, err := dfgio.EncodeSchedule(design.Schedule)
			if err != nil {
				return nil, err
			}
			resp.Schedule = sj
		}
		return resp, nil
	}}, nil
}

// decodeSweep also validates the range: a bad range or a graph whose
// critical path exceeds cs_hi is refused here, before the entry lookup
// and before a worker slot is taken, so it counts as neither a hit nor
// a miss and never waits in the queue.
func decodeSweep(body []byte) (*pending, error) {
	req, err := decodeBody[SweepRequest](body)
	if err != nil {
		return nil, err
	}
	d, err := decodeRequest(req.Graph, "", req.Config)
	if err != nil {
		return nil, err
	}
	if req.CsLo < 1 || req.CsLo > req.CsHi {
		return nil, badRequest(&guard.RangeError{Lo: req.CsLo, Hi: req.CsHi})
	}
	if cp := d.graph.CriticalPathCycles(); cp > req.CsHi {
		return nil, badRequest(&guard.RangeError{
			Lo: req.CsLo, Hi: req.CsHi, CriticalPath: cp, Graph: d.graph.Name,
		})
	}
	entry := mixKey(d.strict, []byte("sweep"), u64bytes(uint64(req.CsLo), uint64(req.CsHi)))
	return &pending{entry: entry, produce: func(ctx context.Context) (any, error) {
		cfg := d.cfg
		cfg.Parallelism = 0 // the sweep holds one slot; fan its points out on the machine
		points, err := hls.SweepCtx(ctx, d.graph, cfg, req.CsLo, req.CsHi)
		if err != nil {
			return nil, err
		}
		resp := &SweepResponse{
			Hash:   entry.String(),
			Design: d.graph.Name,
			Points: make([]SweepPointJSON, len(points)),
		}
		for i, p := range points {
			resp.Points[i] = SweepPointJSON{CS: p.CS, Cost: costJSON(p.Cost), ALUs: p.ALUs, Pareto: p.Pareto}
		}
		return resp, nil
	}}, nil
}

func decodeCertify(body []byte) (*pending, error) {
	_, d, err := decodeDesign(body)
	if err != nil {
		return nil, err
	}
	entry := mixKey(d.strict, []byte("certify"))
	return &pending{entry: entry, produce: func(ctx context.Context) (any, error) {
		design, err := hls.SynthesizeCtx(ctx, d.graph, d.cfg)
		if err != nil {
			return nil, err
		}
		cert, err := hls.CertifyCtx(ctx, design.LintUnit())
		if err != nil {
			return nil, err
		}
		cj, err := json.Marshal(cert)
		if err != nil {
			return nil, err
		}
		return &CertifyResponse{Hash: entry.String(), Certificate: cj}, nil
	}}, nil
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) error {
	writeJSON(w, http.StatusOK, s.Metrics())
	return nil
}

// Metrics snapshots the server counters.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	reqs := make(map[string]uint64, len(s.requests))
	for k, v := range s.requests {
		reqs[k] = v
	}
	errs := make(map[string]uint64, len(s.errs))
	for k, v := range s.errs {
		errs[k] = v
	}
	lat := append([]float64(nil), s.lat...)
	served := s.latCount
	s.mu.Unlock()
	sort.Float64s(lat)
	m := Metrics{
		Requests: reqs,
		Errors:   errs,
		Cache:    s.cache.stats(),
		InFlight: s.inFlight.Load(),
		Queued:   s.queued.Load(),
		Served:   served,
	}
	m.LatencyP50Ms = Percentile(lat, 50)
	m.LatencyP99Ms = Percentile(lat, 99)
	return m
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending sample slice: the smallest sample with at least p% of
// the samples at or below it, at index ⌈p·n/100⌉−1. An empty slice
// yields 0.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(math.Ceil(p*float64(len(sorted))/100))-1]
}

func b2u(v bool) uint64 {
	if v {
		return 1
	}
	return 0
}
