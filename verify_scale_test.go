package hls_test

import (
	"context"
	"testing"
	"time"

	hls "repro"
	"repro/internal/gen"
	"repro/internal/lint"
	"repro/internal/sim"
)

// TestVerificationScalesLinearly times the 8-vector cross-check and the
// translation-validation pass on gen graphs of 2k and 8k nodes and
// requires the 8k/2k ratio of each to stay below 8. A cost linear in the
// design gives about 4; a coverage check that scans every register on
// every cross-step read gives 16 or more. The sizes take turns, five
// rounds of 2k then 8k, and each keeps its fastest run, so load from
// another process lands on both sizes rather than on one.
func TestVerificationScalesLinearly(t *testing.T) {
	if testing.Short() {
		t.Skip("8k-node synthesis")
	}
	// Race instrumentation adds noise to the small design's time more
	// than to the large one's; the bound stays below the quadratic 16.
	bound := 8.0
	if raceEnabled {
		bound = 12
	}
	ctx := context.Background()
	var checks, certifies [2]func() error
	for i, nodes := range []int{2000, 8000} {
		g, err := gen.Generate(gen.Config{Nodes: nodes, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		d, err := hls.Synthesize(g, hls.Config{CS: g.CriticalPathCycles() + 4})
		if err != nil {
			t.Fatal(err)
		}
		u := d.LintUnit()
		checks[i] = func() error {
			return sim.CrossCheckSeedsCtx(ctx, d.Schedule, d.Datapath, 0, nil)
		}
		certifies[i] = func() error {
			cert, err := lint.Certify(ctx, u)
			if err == nil && cert.Status != "certified" {
				t.Fatalf("%d nodes: certificate %s: %v", nodes, cert.Status, cert.Diagnostics)
			}
			return err
		}
	}
	for _, c := range []struct {
		what string
		runs [2]func() error
	}{{"CrossCheckSeedsCtx", checks}, {"lint.Certify", certifies}} {
		d := fastestInTurns(t, c.runs)
		ratio := float64(d[1]) / float64(d[0])
		t.Logf("%s: 2k nodes %v, 8k nodes %v, ratio %.2f", c.what, d[0], d[1], ratio)
		if ratio >= bound {
			t.Errorf("%s: 8k/2k time ratio %.2f, want < %v (2k %v, 8k %v)", c.what, ratio, bound, d[0], d[1])
		}
	}
}

// fastestInTurns runs each of fs in turn for five rounds and returns
// each one's shortest run.
func fastestInTurns(t *testing.T, fs [2]func() error) [2]time.Duration {
	t.Helper()
	best := [2]time.Duration{1<<63 - 1, 1<<63 - 1}
	for range 5 {
		for i, f := range fs {
			start := time.Now()
			if err := f(); err != nil {
				t.Fatal(err)
			}
			best[i] = min(best[i], time.Since(start))
		}
	}
	return best
}
