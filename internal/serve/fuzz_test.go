package serve

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/dfgio"
	"repro/internal/library"
)

// postPaths are the endpoints FuzzPostBody drives, picked by its
// endpoint byte.
var postPaths = [...]string{"/synthesize", "/sweep", "/certify"}

// postBody is the request body for postPaths[ep] carrying one graph and
// cfg; a /sweep spans cfg.CS to two steps past it.
func postBody(tb testing.TB, ep int, gj []byte, cfg ConfigJSON) []byte {
	if postPaths[ep] == "/sweep" {
		return mustMarshal(tb, SweepRequest{Graph: gj, CsLo: cfg.CS, CsHi: cfg.CS + 2, Config: cfg})
	}
	return mustMarshal(tb, SynthesizeRequest{Graph: gj, Config: cfg})
}

// FuzzPostBody drives arbitrary bytes through POST /synthesize, /sweep
// or /certify, picked by the endpoint byte. The handler must never panic
// or answer 500, the same bytes sent again must get the same status, and
// after a 200 the repeat must be a cache hit with identical bytes. The
// short DefaultTimeout turns a fuzzed time constraint that would
// synthesize for long into a 504; whether a deadline fires depends on
// the clock, not on the bytes, so a 504 is the one status a repeat may
// change.
func FuzzPostBody(f *testing.F) {
	for _, ex := range benchmarks.All() {
		gj, err := dfgio.EncodeGraph(ex.Graph)
		if err != nil {
			f.Fatal(err)
		}
		for ep := range postPaths {
			f.Add(byte(ep), postBody(f, ep, gj, ConfigJSON{CS: ex.Graph.CriticalPathCycles()}))
		}
	}
	f.Add(byte(0), mustMarshal(f, SynthesizeRequest{Source: "design mac\ninput a, b, c\ny = a * b + c\n", Config: ConfigJSON{CS: 3}}))

	// Config-heavy bodies on facet, whose mul has an 80 ns delay.
	gj, err := dfgio.EncodeGraph(benchmarks.Facet().Graph)
	if err != nil {
		f.Fatal(err)
	}
	for _, cfg := range []ConfigJSON{
		{CS: 4, ClockNs: 50},
		{CS: 4, Latency: 2},
		{CS: 4, Style: 2},
		{CS: 4, PipelinedOps: []string{"*"}},
		{CS: 4, Limits: map[string]int{"fu_mul": 1, "fu_add": 1, "fu_sub": 1}},
		{CS: 4, Weights: []float64{1, 50, 1, 1}},
	} {
		for ep := range postPaths {
			f.Add(byte(ep), postBody(f, ep, gj, cfg))
		}
	}

	// Configs the engines refuse with a typed error, on diffeq at cs 4:
	// negative limits keyed by unit and by op, one instance of every
	// unit, the values no run can honor (a limit on an op symbol, style
	// 7, a negative clock or latency, a clock whose span overflows, a
	// latency above cs, an unknown pipelined op), a sweep whose latency
	// exceeds every point's cs, and a folded loop for MFSA.
	dj, err := dfgio.EncodeGraph(benchmarks.Diffeq().Graph)
	if err != nil {
		f.Fatal(err)
	}
	units := map[string]int{}
	for _, u := range library.NCRLike().Units() {
		units[u.Name] = 1
	}
	for _, cfg := range []ConfigJSON{
		{CS: 4, Limits: map[string]int{"fu_mul": -3}},
		{CS: 4, Limits: map[string]int{"*": -1}},
		{CS: 4, Limits: units},
		{CS: 6, Limits: map[string]int{"*": 1}},
		{CS: 4, Style: 7},
		{CS: 4, ClockNs: -5},
		{CS: 4, ClockNs: 1e308},
		{CS: 4, Latency: -1},
		{CS: 4, Latency: 9},
		{CS: 4, PipelinedOps: []string{"%%"}},
	} {
		for ep := range postPaths {
			f.Add(byte(ep), postBody(f, ep, dj, cfg))
		}
	}
	f.Add(byte(1), mustMarshal(f, SweepRequest{Graph: dj, CsLo: 4, CsHi: 6, Config: ConfigJSON{Latency: 9}}))
	f.Add(byte(0), mustMarshal(f, SynthesizeRequest{Source: "design smoother\ninput start, coeff\n" +
		"loop smooth cycles 2 binds acc = start, d = coeff yields nxt {\n    half = acc >> 1\n    nxt = half + d\n}\n" +
		"final = smooth * 3\n", Config: ConfigJSON{CS: 4}}))

	s := New(Options{DefaultTimeout: 200 * time.Millisecond})
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, ep byte, body []byte) {
		path := postPaths[int(ep)%len(postPaths)]
		first := serveOnce(h, path, body)
		if first.Code == http.StatusInternalServerError {
			t.Fatalf("%s: 500: %s", path, first.Body)
		}
		again := serveOnce(h, path, body)
		if again.Code == http.StatusInternalServerError {
			t.Fatalf("%s: repeat: 500: %s", path, again.Body)
		}
		if first.Code != again.Code && first.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d, then %d on the repeat: %s", path, first.Code, again.Code, again.Body)
		}
		if first.Code != http.StatusOK {
			return
		}
		if v := again.Header().Get("X-Hlsd-Cache"); v != "hit" {
			t.Errorf("%s: repeat of a 200: verdict %q, want hit", path, v)
		}
		if !bytes.Equal(first.Body.Bytes(), again.Body.Bytes()) {
			t.Errorf("%s: repeat of a 200 returned other bytes", path)
		}
	})
}
