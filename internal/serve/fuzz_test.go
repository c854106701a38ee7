package serve

import (
	"bytes"
	"net/http"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/dfgio"
)

// FuzzSynthesizeBody drives arbitrary bytes through POST /synthesize.
// The handler must never panic or answer 500, the same bytes sent again
// must get the same status, and after a 200 the repeat must be a cache
// hit with identical bytes. The short DefaultTimeout turns a fuzzed
// time constraint that would synthesize for long into a 504; whether a
// deadline fires depends on the clock, not on the bytes, so a 504 is
// the one status a repeat may change.
func FuzzSynthesizeBody(f *testing.F) {
	for _, ex := range benchmarks.All() {
		gj, err := dfgio.EncodeGraph(ex.Graph)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(mustMarshal(f, SynthesizeRequest{Graph: gj, Config: ConfigJSON{CS: ex.Graph.CriticalPathCycles()}}))
	}
	f.Add(mustMarshal(f, SynthesizeRequest{Source: "design mac\ninput a, b, c\ny = a * b + c\n", Config: ConfigJSON{CS: 3}}))

	s := New(Options{DefaultTimeout: 200 * time.Millisecond})
	f.Cleanup(s.Close)
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		first := serveOnce(h, body)
		if first.Code == http.StatusInternalServerError {
			t.Fatalf("500: %s", first.Body)
		}
		again := serveOnce(h, body)
		if again.Code == http.StatusInternalServerError {
			t.Fatalf("repeat: 500: %s", again.Body)
		}
		if first.Code != again.Code && first.Code != http.StatusGatewayTimeout {
			t.Fatalf("status %d, then %d on the repeat: %s", first.Code, again.Code, again.Body)
		}
		if first.Code != http.StatusOK {
			return
		}
		if v := again.Header().Get("X-Hlsd-Cache"); v != "hit" {
			t.Errorf("repeat of a 200: verdict %q, want hit", v)
		}
		if !bytes.Equal(first.Body.Bytes(), again.Body.Bytes()) {
			t.Error("repeat of a 200 returned other bytes")
		}
	})
}
