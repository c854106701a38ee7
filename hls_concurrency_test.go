// Concurrency stress test: many goroutines synthesize, schedule and
// sweep the *same* graph simultaneously. It is the determinism and
// data-race guard for the parallel engine — scheduling must treat graphs
// and libraries as read-only, and every worker must get byte-identical
// results. Run it under `go test -race ./...` (part of the tier-1 verify
// path) to have the race detector check the immutability claim.
package hls_test

import (
	"fmt"
	"math"
	"runtime"
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

// TestBelowGrainRunsInline: on a paper graph, below pool.GrainNodes, the
// default Parallelism runs both fan-outs inside one design on the
// caller's goroutine even at GOMAXPROCS 2. The resource-constrained
// search probes no cs past its answer and the lint gate starts no worker
// goroutine, so a call makes exactly the allocations of Parallelism 1.
// testing.AllocsPerRun would pin GOMAXPROCS to 1 and hide the fan-out,
// so the test reads runtime.MemStats itself; the least count of several
// rounds screens out allocations by other goroutines. Under -race the
// test compares results only: the race build's sync.Pool drops a random
// share of what is put back, so every fmt call allocates a varying count.
func TestBelowGrainRunsInline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := benchmarks.Diffeq().Graph
	limits := map[string]int{"*": 2, "+": 1, "-": 1, "<": 1}
	for _, tc := range []struct {
		name string
		cfg  hls.Config
		run  func(hls.Config) (*hls.Design, error)
	}{
		{"ScheduleGraph/resource", hls.Config{Limits: limits}, func(c hls.Config) (*hls.Design, error) { return hls.ScheduleGraph(g, c) }},
		{"Synthesize/lint", hls.Config{CS: 4, Lint: true}, func(c hls.Config) (*hls.Design, error) { return hls.Synthesize(g, c) }},
	} {
		allocs := func(par int) (uint64, string) {
			cfg := tc.cfg
			cfg.Parallelism = par
			d, err := tc.run(cfg)
			if err != nil {
				t.Fatalf("%s, Parallelism %d: %v", tc.name, par, err)
			}
			least := uint64(math.MaxUint64)
			for round := 0; round < 5; round++ {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < 10; i++ {
					tc.run(cfg)
				}
				runtime.ReadMemStats(&after)
				least = min(least, after.Mallocs-before.Mallocs)
			}
			return least, designKey(d)
		}
		inline, want := allocs(1)
		def, got := allocs(0)
		if got != want {
			t.Errorf("%s: Parallelism 0 gives\n%s\nParallelism 1 gives\n%s", tc.name, got, want)
		}
		if def != inline && !raceEnabled {
			t.Errorf("%s: 10 calls at Parallelism 0 make %d allocations, %d at Parallelism 1", tc.name, def, inline)
		}
	}
}
