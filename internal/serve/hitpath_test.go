package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/dfgio"
	"repro/internal/gen"
)

// hitPathBodies returns two /synthesize encodings of one request for a
// 300-node generated graph: compact, and indented with the config
// first. Both name the same cache entry, by different bytes.
func hitPathBodies(tb testing.TB) (compact, reencoded []byte) {
	tb.Helper()
	g, err := gen.Generate(gen.Config{Nodes: 300, MulCycles: 2, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	gj, err := dfgio.EncodeGraph(g)
	if err != nil {
		tb.Fatal(err)
	}
	cfg := ConfigJSON{CS: g.CriticalPathCycles() + 4}
	return mustMarshal(tb, SynthesizeRequest{Graph: gj, Config: cfg}), reencode(tb, gj, cfg)
}

// reencode returns the /synthesize body json.Marshal gives for gj and
// cfg with other bytes: indented, config first.
func reencode(tb testing.TB, gj json.RawMessage, cfg ConfigJSON) []byte {
	tb.Helper()
	b, err := json.MarshalIndent(struct {
		Config ConfigJSON      `json:"config"`
		Graph  json.RawMessage `json:"graph"`
	}{cfg, gj}, "", "\t")
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// serveOnce posts body to path on h in process and returns the
// recorded response.
func serveOnce(h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// BenchmarkHitPath times one cache hit on a 300-node graph through the
// whole handler. front repeats the cached request byte for byte; entry
// alternates two encodings of it, so every request misses the front key
// and hits the entry after a full decode and fingerprint.
func BenchmarkHitPath(b *testing.B) {
	compact, reencoded := hitPathBodies(b)
	for _, bc := range []struct {
		name   string
		bodies [][]byte
	}{
		{"front", [][]byte{compact}},
		{"entry", [][]byte{compact, reencoded}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := New(Options{})
			defer s.Close()
			h := s.Handler()
			for _, body := range bc.bodies {
				if rec := serveOnce(h, "/synthesize", body); rec.Code != http.StatusOK {
					b.Fatalf("warm: status %d: %s", rec.Code, rec.Body)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := serveOnce(h, "/synthesize", bc.bodies[i%len(bc.bodies)])
				if rec.Header().Get("X-Hlsd-Cache") != "hit" {
					b.Fatalf("request %d: status %d, verdict %q", i, rec.Code, rec.Header().Get("X-Hlsd-Cache"))
				}
			}
		})
	}
}

// frontHitAllocs bounds the allocations of one front-key hit on the
// 300-node request, request and recorder included. Decoding that
// request's graph alone takes about 3.3k.
const frontHitAllocs = 64

// TestFrontHitAllocs pins that a byte-identical repeat is answered
// without decoding: a regression that puts the JSON decode, the graph
// build or a graph hash back on the hit path costs thousands of
// allocations.
func TestFrontHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	compact, _ := hitPathBodies(t)
	s := New(Options{})
	defer s.Close()
	h := s.Handler()
	if rec := serveOnce(h, "/synthesize", compact); rec.Code != http.StatusOK {
		t.Fatalf("warm: status %d: %s", rec.Code, rec.Body)
	}
	var verdict string
	allocs := testing.AllocsPerRun(100, func() {
		verdict = serveOnce(h, "/synthesize", compact).Header().Get("X-Hlsd-Cache")
	})
	if verdict != "hit" {
		t.Fatalf("repeat verdict %q, want hit", verdict)
	}
	if allocs > frontHitAllocs {
		t.Errorf("front hit: %v allocations, want at most %d", allocs, frontHitAllocs)
	}
	t.Logf("front hit: %v allocations", allocs)
}
