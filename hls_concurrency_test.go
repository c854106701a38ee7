// Concurrency stress test: many goroutines synthesize, schedule and
// sweep the *same* graph simultaneously. It is the determinism and
// data-race guard for the parallel engine — scheduling must treat graphs
// and libraries as read-only, and every worker must get byte-identical
// results. Run it under `go test -race ./...` (part of the tier-1 verify
// path) to have the race detector check the immutability claim.
package hls_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	hls "repro"
	"repro/internal/benchmarks"
)

// designKey canonically serializes a design: total cost, ALU set and
// every placement in node order. Map iteration order never leaks in.
func designKey(d *hls.Design) string {
	var b strings.Builder
	alus := ""
	if d.Datapath != nil {
		alus = d.Datapath.ALUSummary()
	}
	fmt.Fprintf(&b, "cs=%d cost=%.3f alus=%s\n", d.Schedule.CS, d.Cost.Total, alus)
	for _, n := range d.Graph.Nodes() {
		if p, ok := d.Schedule.At(n.ID); ok {
			fmt.Fprintf(&b, "%d@%d:%s#%d\n", n.ID, p.Step, p.Type, p.Index)
		}
	}
	return b.String()
}

// TestConcurrentSynthesisOnSharedGraph hammers one shared graph with 32
// concurrent workers, each running MFSA synthesis, the speculative
// resource-constrained MFS search, and a full parallel sweep, and
// asserts all workers produced identical results.
func TestConcurrentSynthesisOnSharedGraph(t *testing.T) {
	ex := benchmarks.Diffeq()
	g := ex.Graph // shared, never cloned: workers must not mutate it
	limits := map[string]int{"*": 2, "+": 1, "-": 1, "<": 1}

	const workers = 32
	type result struct {
		synth, sched, sweep string
	}
	results := make([]result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d, err := hls.Synthesize(g, hls.Config{CS: 4})
			if err != nil {
				errs[w] = fmt.Errorf("worker %d synthesize: %w", w, err)
				return
			}
			results[w].synth = designKey(d)

			s, err := hls.ScheduleGraph(g, hls.Config{Limits: limits})
			if err != nil {
				errs[w] = fmt.Errorf("worker %d schedule: %w", w, err)
				return
			}
			results[w].sched = designKey(s)

			points, err := hls.Sweep(g, hls.Config{}, 1, 10)
			if err != nil {
				errs[w] = fmt.Errorf("worker %d sweep: %w", w, err)
				return
			}
			results[w].sweep = fmt.Sprintf("%+v", points)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for w := 1; w < workers; w++ {
		if results[w] != results[0] {
			t.Fatalf("worker %d diverged from worker 0:\n%+v\nvs\n%+v", w, results[w], results[0])
		}
	}
}
