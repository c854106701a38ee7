package mfs

import (
	"runtime"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/gen"
	"repro/internal/sched"
)

// TestEWFScheduleAllocs pins the allocation budget of a full MFS run on
// the largest benchmark (EWF, 34 operations, cs = 17). Before the bitset
// frame engine and the dense per-node state this run cost 1517
// allocations (hash-map frames rebuilt per placement, per-candidate
// sorting, map-keyed placement state); with them it costs 863. The bound
// leaves headroom for incidental churn but fails long before anything
// map-shaped creeps back into the placement loop.
func TestEWFScheduleAllocs(t *testing.T) {
	ex := benchmarks.EWF()
	cs := ex.TimeConstraints[0]
	if cs != 17 {
		t.Fatalf("EWF's first time constraint moved: got %d, the budget below was measured at 17", cs)
	}
	got := testing.AllocsPerRun(20, func() {
		if _, err := Schedule(ex.Graph, Options{CS: cs}); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 1100 // measured 863; seed (map-based engine) was 1517
	if got > budget {
		t.Errorf("EWF cs=%d schedule: %.0f allocs/run, budget %d (seed was 1517)", cs, got, budget)
	}
}

// TestTraceAllocsNearNoTrace pins the cost of recording the trajectory:
// a step records its window and the frames follow in closed form, so a
// traced 10k-node run allocates at most 100 bytes per recorded step
// more than its NoTrace twin, the 96-byte TraceStep and its share of
// the Trace. When every step stored PF, RF, FF and MF as bitsets, the
// traced run allocated 22.8x as much as the untraced one.
func TestTraceAllocsNearNoTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node graph")
	}
	g, err := gen.Generate(gen.Config{Nodes: 10_000, Seed: 1, MulCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	allocated := func(opt Options) (int64, *sched.Schedule) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := Schedule(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc), s
	}
	opt := Options{CS: g.CriticalPathCycles() + 16}
	traced, s := allocated(opt)
	opt.NoTrace = true
	untraced, _ := allocated(opt)
	steps := len(s.Trace.Steps)
	perStep := float64(traced-untraced) / float64(steps)
	t.Logf("traced %d bytes, NoTrace %d: %.1f bytes per recorded step of %d", traced, untraced, perStep, steps)
	if perStep > 100 {
		t.Errorf("the trace allocates %.1f bytes per recorded step, want at most 100", perStep)
	}
}
