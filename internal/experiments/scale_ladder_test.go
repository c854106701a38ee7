//go:build scale

package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/benchmarks"
)

// TestFullScaleLadder runs the entire ladder — 100k-node rung included —
// and is therefore gated behind `go test -tags scale`: it takes tens of
// seconds and allocates gigabytes, which has no place in the tier-1
// suite. The nightly CI scale job runs it alongside `hlsbench -scale
// -compare`.
func TestFullScaleLadder(t *testing.T) {
	s, err := MeasureScaleCtx(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	rungs := 0
	for _, m := range s.Metrics {
		t.Logf("%-28s %14.1f %s", m.Name, m.Value, m.Unit)
		if strings.HasSuffix(m.Name, "/wall") {
			rungs++
			if m.Value <= 0 {
				t.Errorf("%s: implausible timing %v", m.Name, m.Value)
			}
		}
	}
	if want := len(benchmarks.Scale()); rungs != want {
		t.Fatalf("rungs = %d, want the full %d-rung ladder", rungs, want)
	}
	// The issue's acceptance bars: 10k nodes in single-digit seconds,
	// 100k completes at all. Generous multiples of the measured numbers
	// (~0.5 s and ~25 s locally) so only an asymptotic regression —
	// not machine noise — can trip them.
	if v := metric(t, s, "rand10k/wall").Value; v > 10_000 {
		t.Errorf("rand10k took %.0f ms, want single-digit seconds", v)
	}
	if v := metric(t, s, "rand100k/wall").Value; v > 300_000 {
		t.Errorf("rand100k took %.0f ms", v)
	}
}
