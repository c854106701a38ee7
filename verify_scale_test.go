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
// every cross-step read gives 16 or more.
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
	var check, certify [2]time.Duration
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
		check[i] = bestOf3(t, func() error {
			return sim.CrossCheckSeedsCtx(ctx, d.Schedule, d.Datapath, 0, nil)
		})
		certify[i] = bestOf3(t, func() error {
			cert, err := lint.Certify(ctx, u)
			if err == nil && cert.Status != "certified" {
				t.Fatalf("%d nodes: certificate %s: %v", nodes, cert.Status, cert.Diagnostics)
			}
			return err
		})
	}
	for _, c := range []struct {
		what string
		d    [2]time.Duration
	}{{"CrossCheckSeedsCtx", check}, {"lint.Certify", certify}} {
		ratio := float64(c.d[1]) / float64(c.d[0])
		t.Logf("%s: 2k nodes %v, 8k nodes %v, ratio %.2f", c.what, c.d[0], c.d[1], ratio)
		if ratio >= bound {
			t.Errorf("%s: 8k/2k time ratio %.2f, want < %v (2k %v, 8k %v)", c.what, ratio, bound, c.d[0], c.d[1])
		}
	}
}

// bestOf3 returns the shortest of three timed runs of f.
func bestOf3(t *testing.T, f func() error) time.Duration {
	t.Helper()
	best := time.Duration(1<<63 - 1)
	for range 3 {
		start := time.Now()
		if err := f(); err != nil {
			t.Fatal(err)
		}
		best = min(best, time.Since(start))
	}
	return best
}
