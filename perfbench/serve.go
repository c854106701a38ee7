package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math/rand"
	"net/http"
	"net/http/httptest"

	hls "repro"
	"repro/internal/benchmarks"
	"repro/internal/canon"
	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/dfgio"
	"repro/internal/gen"
	"repro/internal/mfsa"
	"repro/internal/pool"
	"repro/internal/serve"
)

// The serve workload is two closed-loop clients calling the hlsd
// handler in process, one POST /synthesize per op. Each pass requests
// every warmed design once — ~300-node random graphs, the six paper
// graphs and the designs/*.hls sources — plus fresh designs the cache
// has never seen, about one request in ten. Fresh designs never repeat
// and the run never fills the cache, so the hit ratio is exact under any
// client interleaving. Random graph shapes come from fixed generator
// seeds; the workload seed relabels them, orders each pass and picks the
// requests that ask for the netlist.
//
// The mix is not taken from real hlsd traffic, of which the repository
// holds none; README.md ("The serve mix") gives the basis of each number
// and what changing it was measured to move.
const (
	// serveGraphs puts the median request inside the 300-node hits: per
	// pass 16 of 28 requests are 300-node hits, 9 small hits, 3 misses.
	serveGraphs       = 16  // warmed random shapes, generator seeds 1..serveGraphs
	serveFreshShapes  = 24  // fresh shapes, generator seeds 1001.., cycled
	serveNodes        = 300 // operations per random graph
	serveFreshPerPass = 3   // fresh designs per pass: 3 of 28, about one request in ten
	// serveNetlistOneIn is an assumption: a request asks for the netlist
	// with probability 1/4.
	serveNetlistOneIn = 4
	serveCSSlack      = 4
	servePassMs       = 95
	// serveCacheEntries is serve.Options{}'s default entry cap; a run's
	// entries must stay below it so nothing is evicted.
	serveCacheEntries = 1024
)

// serveDesign is one distinct design a request can name.
type serveDesign struct {
	g     *dfg.Graph // for sources, hls.ParseBehavior's graph; nil for fresh designs
	gj    []byte     // compact dfgio encoding; nil for sources and fresh designs, whose body carries it
	src   string
	cs    int
	fresh bool
	body  [2][]byte // request bodies without and with the netlist; a fresh design has only the one it is sent with
}

// serveSlot is one request of the stream.
type serveSlot struct {
	design  int
	netlist bool
}

// serveRec is what one request returned. The body itself is not kept,
// so the run's peak RSS is the daemon's alone.
type serveRec struct {
	status  int
	verdict string // X-Hlsd-Cache
	body    uint64 // maphash of the response body
}

type serveBench struct {
	srv     *serve.Server
	h       http.Handler
	designs []serveDesign
	warmed  int         // designs[:warmed] are cached in setup
	stream  []serveSlot // the whole run's requests, pass by pass
	perPass int
	recs    []serveRec
	seed    maphash.Seed
	want    [][2]uint64      // warmed designs' response hashes
	cost    []serve.CostJSON // warmed designs' costs
	hash    [sha256.Size]byte
}

// serveInputs builds the seeded designs, their request bodies and the
// request stream of a run of the given number of passes.
func serveInputs(seed int64, passes int) (*serveBench, error) {
	r := rand.New(rand.NewSource(seed))
	var ds []serveDesign
	for k := 1; k <= serveGraphs; k++ {
		d, err := randomDesign(r, int64(k), fmt.Sprintf("g%d", k))
		if err != nil {
			return nil, err
		}
		ds = append(ds, d)
	}
	for _, ex := range benchmarks.All() {
		gj, err := encodeGraph(ex.Graph)
		if err != nil {
			return nil, err
		}
		ds = append(ds, serveDesign{g: ex.Graph, gj: gj, cs: ex.Graph.CriticalPathCycles()})
	}
	srcs, err := readDesigns()
	if err != nil {
		return nil, err
	}
	for _, d := range srcs {
		g, _, err := hls.ParseBehavior(d.src)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.name, err)
		}
		ds = append(ds, serveDesign{g: g, src: d.src, cs: g.CriticalPathCycles()})
	}
	warmed := len(ds)
	if 2*warmed+passes*serveFreshPerPass >= serveCacheEntries {
		return nil, fmt.Errorf("%d passes would fill the %d-entry cache", passes, serveCacheEntries)
	}

	b := &serveBench{seed: maphash.MakeSeed(), warmed: warmed, perPass: warmed + serveFreshPerPass}
	for k := 0; k < warmed; k++ {
		for nl := 0; nl < 2; nl++ {
			if err := ds[k].marshal(nl); err != nil {
				return nil, err
			}
		}
	}
	for p := 0; p < passes; p++ {
		slots := make([]serveSlot, 0, b.perPass)
		for k := 0; k < b.perPass; k++ {
			slots = append(slots, serveSlot{design: k}) // k >= warmed: a fresh design, made below
		}
		r.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
		for k := range slots {
			slots[k].netlist = r.Intn(serveNetlistOneIn) == 0
			if slots[k].design < warmed {
				continue
			}
			n := len(ds) - warmed
			d, err := randomDesign(r, 1001+int64(n%serveFreshShapes), fmt.Sprintf("fresh%d", n))
			if err != nil {
				return nil, err
			}
			if err := d.marshal(b2i(slots[k].netlist)); err != nil {
				return nil, err
			}
			// The body carries the graph; dropping the other copies keeps
			// the inputs out of the daemon's peak RSS.
			d.fresh, d.g, d.gj = true, nil, nil
			slots[k].design = len(ds)
			ds = append(ds, d)
		}
		b.stream = append(b.stream, slots...)
	}
	b.designs = ds
	h := sha256.New()
	for _, s := range b.stream {
		fmt.Fprintf(h, "%d %t\n", s.design, s.netlist)
	}
	for k := range ds {
		h.Write(ds[k].body[0])
		h.Write(ds[k].body[1])
	}
	h.Sum(b.hash[:0])
	b.recs = make([]serveRec, len(b.stream))
	return b, nil
}

func setupServe(ctx context.Context, seed int64, passes int) (bench, error) {
	b, err := serveInputs(seed, passes)
	if err != nil {
		return nil, err
	}
	ds, warmed := b.designs, b.warmed

	// Cache fill: every warmed design in both netlist variants is a miss
	// here, so each of its requests in the run is a hit.
	b.srv = serve.New(serve.Options{})
	b.h = b.srv.Handler()
	b.want = make([][2]uint64, warmed)
	b.cost = make([]serve.CostJSON, warmed)
	for k := 0; k < warmed; k++ {
		for nl := 0; nl < 2; nl++ {
			rec := b.post(ctx, ds[k].body[nl])
			if rec.Code != http.StatusOK || rec.Header().Get("X-Hlsd-Cache") != "miss" {
				return nil, fmt.Errorf("cache fill: design %d: status %d, %s", k, rec.Code, rec.Body.String())
			}
			b.want[k][nl] = maphash.Bytes(b.seed, rec.Body.Bytes())
			var resp serve.SynthesizeResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				return nil, err
			}
			b.cost[k] = resp.Cost
		}
	}
	// The warm pass: every warmed request once more, now a hit.
	for k := 0; k < warmed; k++ {
		for nl := 0; nl < 2; nl++ {
			if rec := b.post(ctx, ds[k].body[nl]); rec.Code != http.StatusOK {
				return nil, fmt.Errorf("warm pass: design %d: status %d", k, rec.Code)
			}
		}
	}
	return b, nil
}

// marshal encodes d's request body without (nl = 0) or with the netlist.
func (d *serveDesign) marshal(nl int) error {
	req := serve.SynthesizeRequest{Graph: d.gj, Source: d.src, Config: serve.ConfigJSON{CS: d.cs}, Netlist: nl == 1}
	var err error
	d.body[nl], err = json.Marshal(&req)
	return err
}

// randomDesign relabels the ~300-node random shape of the given
// generator seed, at critical path + 4.
func randomDesign(r *rand.Rand, shape int64, name string) (serveDesign, error) {
	s, err := gen.Generate(gen.Config{Nodes: serveNodes, MulCycles: scaleMulCyc, Seed: shape})
	if err != nil {
		return serveDesign{}, err
	}
	g, err := relabel(s, r, name)
	if err != nil {
		return serveDesign{}, err
	}
	gj, err := encodeGraph(g)
	if err != nil {
		return serveDesign{}, err
	}
	return serveDesign{g: g, gj: gj, cs: g.CriticalPathCycles() + serveCSSlack}, nil
}

// encodeGraph is dfgio.EncodeGraph without the indentation.
func encodeGraph(g *dfg.Graph) ([]byte, error) {
	gj, err := dfgio.EncodeGraph(g)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, gj); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// requestGraph returns the graph encoding a request for d carries.
func requestGraph(d *serveDesign, nl int) ([]byte, error) {
	if d.gj != nil {
		return d.gj, nil
	}
	var req serve.SynthesizeRequest
	if err := json.Unmarshal(d.body[nl], &req); err != nil {
		return nil, err
	}
	return req.Graph, nil
}

func b2i(v bool) int {
	if v {
		return 1
	}
	return 0
}

func (b *serveBench) post(ctx context.Context, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/synthesize", bytes.NewReader(body)).WithContext(ctx)
	rec := httptest.NewRecorder()
	b.h.ServeHTTP(rec, req)
	return rec
}

func (b *serveBench) passOps() int                 { return b.perPass }
func (b *serveBench) inputHash() [sha256.Size]byte { return b.hash }

func (b *serveBench) cacheCounters() (uint64, uint64) {
	c := b.srv.Metrics().Cache
	return c.Hits, c.Misses
}

func (b *serveBench) op(ctx context.Context, i int, tr *tracer, root int) error {
	slot := b.stream[i]
	d := &b.designs[slot.design]
	nl := b2i(slot.netlist)
	id := tr.begin("serve.handler", i, root)
	rec := b.post(ctx, d.body[nl])
	verdict := rec.Header().Get("X-Hlsd-Cache")
	tr.endAs(id, "serve."+verdict)
	b.recs[i] = serveRec{status: rec.Code, verdict: verdict, body: maphash.Bytes(b.seed, rec.Body.Bytes())}
	if tr != nil {
		return b.beside(ctx, tr, i, root, d, nl)
	}
	return nil
}

// beside times, next to the handler, the calls its hit path makes on
// the request's graph, and on a fresh design the synthesis its miss
// path makes.
func (b *serveBench) beside(ctx context.Context, tr *tracer, i, root int, d *serveDesign, nl int) error {
	g := d.g
	if d.src == "" {
		gj, err := requestGraph(d, nl)
		if err != nil {
			return err
		}
		if err := tr.do("dfgio", i, root, func() (err error) {
			g, err = dfgio.DecodeGraph(gj)
			return err
		}); err != nil {
			return err
		}
	}
	cfg := core.Config{CS: d.cs}
	if err := tr.do("canon.fingerprint", i, root, func() error {
		_, err := canon.Fingerprint(g, nil, cfg)
		return err
	}); err != nil {
		return err
	}
	if err := tr.do("canon.canonical", i, root, func() error {
		_, err := canon.Canonical(g, nil, cfg)
		return err
	}); err != nil {
		return err
	}
	if !d.fresh {
		return nil
	}
	var res *mfsa.Result
	if err := tr.do("mfsa", i, root, func() (err error) {
		res, err = mfsa.SynthesizeCtx(ctx, g, mfsa.Options{CS: d.cs})
		return err
	}); err != nil {
		return err
	}
	tr.do("rtl.muxopt", i, root, func() error {
		res.Datapath.ReoptimizeMuxes(g)
		return nil
	})
	return nil
}

// check requires a 200 on every request, a hit body byte-identical to
// the warmed miss body of the same request, a miss for every fresh
// design with the cost a direct core.SynthesizeCtx gives, and no
// eviction. A fresh design's miss body is read back from the cache: its
// request, posted once more, must hit with the same bytes.
func (b *serveBench) check(ctx context.Context, n int) (*report, error) {
	if ev := b.srv.Metrics().Cache.Evictions; ev != 0 {
		return nil, fmt.Errorf("the cache evicted %d entries; the hit ratio is no longer exact", ev)
	}
	rep := &report{failed: make([]bool, n), nodes: make([]int, n), netlistBytes: make([]int, n)}
	var fresh []int // ops that requested a fresh design
	for i := 0; i < n; i++ {
		if b.designs[b.stream[i].design].fresh {
			fresh = append(fresh, i)
		}
	}
	type verified struct {
		ok           bool
		nodes        int
		area         float64 // direct synthesis's Cost.Total
		netlistBytes int
	}
	vs, err := pool.MapCtx(ctx, pool.Size(0), len(fresh), func(k int) (verified, error) {
		slot, rec := b.stream[fresh[k]], b.recs[fresh[k]]
		d, nl := &b.designs[slot.design], b2i(slot.netlist)
		again := b.post(ctx, d.body[nl])
		gj, err := requestGraph(d, nl)
		if err != nil {
			return verified{}, err
		}
		g, err := dfgio.DecodeGraph(gj)
		if err != nil {
			return verified{}, err
		}
		dd, err := core.SynthesizeCtx(ctx, g, core.Config{CS: d.cs, Parallelism: 1})
		if err != nil {
			return verified{}, fmt.Errorf("direct synthesis: %w", err)
		}
		c := dd.Cost
		direct := serve.CostJSON{ALUArea: c.ALUArea, MuxArea: c.MuxArea, RegArea: c.RegArea,
			Total: c.Total, NumALUs: c.NumALUs, NumRegs: c.NumRegs, NumMux: c.NumMux, NumMuxInputs: c.NumMuxInputs}
		var resp serve.SynthesizeResponse
		ok := rec.status == http.StatusOK && rec.verdict == "miss" &&
			again.Code == http.StatusOK && again.Header().Get("X-Hlsd-Cache") == "hit" &&
			maphash.Bytes(b.seed, again.Body.Bytes()) == rec.body &&
			json.Unmarshal(again.Body.Bytes(), &resp) == nil &&
			resp.Cost == direct && (resp.Netlist != "") == slot.netlist
		return verified{ok: ok, nodes: g.Len(), area: c.Total, netlistBytes: len(resp.Netlist)}, nil
	})
	if err != nil {
		return nil, err
	}

	var area, sumNodes float64
	for k := 0; k < b.warmed; k++ {
		area += b.cost[k].Total
		sumNodes += float64(b.designs[k].g.Len())
	}
	for k, i := range fresh {
		area += vs[k].area
		sumNodes += float64(vs[k].nodes)
		rep.failed[i] = !vs[k].ok
		rep.nodes[i] = vs[k].nodes
		rep.netlistBytes[i] = vs[k].netlistBytes
	}
	for i := 0; i < n; i++ {
		slot, rec := b.stream[i], b.recs[i]
		if b.designs[slot.design].fresh {
			continue
		}
		nl := b2i(slot.netlist)
		rep.failed[i] = rec.status != http.StatusOK || rec.verdict != "hit" || rec.body != b.want[slot.design][nl]
	}
	rep.areaPerNode = area / sumNodes
	return rep, nil
}
