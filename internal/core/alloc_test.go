package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/gen"
)

// TestSynthesizeNetlistAllocs pins what one scale-shaped synthesis
// allocates: the 2000-node generated design (seed 1, 2-cycle multiplies)
// at its critical path + 4 steps through SynthesizeCtx and Netlist.
// Naming every datapath and controller fact by id took it from 3.32 MB
// and 7,997 allocations to 2.31 MB and 6,457; the budget leaves about a
// tenth of headroom.
func TestSynthesizeNetlistAllocs(t *testing.T) {
	g, err := gen.Generate(gen.Config{Nodes: 2000, MulCycles: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{CS: g.CriticalPathCycles() + 4}
	run := func() {
		d, err := SynthesizeCtx(context.Background(), g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.Netlist(); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 3
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := (after.Mallocs - before.Mallocs) / runs
	t.Logf("%d bytes and %d allocations per synthesis", bytes, allocs)
	if bytes > 2_600_000 || allocs > 7_000 {
		t.Errorf("%d bytes and %d allocations per synthesis, budget 2,600,000 and 7,000", bytes, allocs)
	}
}
