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
// rounds of 2k then 8k, and each keeps its fastest sample, so load from
// another process lands on both sizes rather than on one. A sample
// repeats the call until the 2k one takes about 10 ms.
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
// each one's shortest time per call. A sample times n back-to-back calls
// and divides by n, with n chosen so that a sample of fs[0] takes at
// least about 10 ms: a 1 ms sample moves with the load that other test
// processes put on the machine.
func fastestInTurns(t *testing.T, fs [2]func() error) [2]time.Duration {
	t.Helper()
	const minSample = 10 * time.Millisecond
	n := 1
	if d := timeCalls(t, fs[0], 1); d < minSample {
		n = int(minSample/max(d, time.Microsecond)) + 1
	}
	best := [2]time.Duration{1<<63 - 1, 1<<63 - 1}
	for range 5 {
		for i, f := range fs {
			best[i] = min(best[i], timeCalls(t, f, n)/time.Duration(n))
		}
	}
	return best
}

// timeCalls returns how long n back-to-back calls of f take.
func timeCalls(t *testing.T, f func() error, n int) time.Duration {
	t.Helper()
	start := time.Now()
	for range n {
		if err := f(); err != nil {
			t.Fatal(err)
		}
	}
	return time.Since(start)
}
