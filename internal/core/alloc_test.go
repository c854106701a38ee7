package core

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/dfg"
	"repro/internal/gen"
)

// TestSynthesizeNetlistAllocs pins what one scale-shaped synthesis
// allocates through SynthesizeCtx and Netlist, at the design's critical
// path + 4 steps with 2-cycle multiplies. gen2000 is the 2000-node
// generated design (seed 1): naming every datapath and controller fact
// by id took it from 3.32 MB and 7,997 allocations to 2.31 MB and 6,457.
// fir1024 is the 1024-tap FIR, whose 651 ALUs made MFSA score 66
// candidates per node, most of them copies of one column shape, and its
// bytes mostly the recorded trace; scoring each shape once per step took
// it from 6.13 MB to 2.75 MB. Each budget leaves about a tenth of
// headroom or more.
func TestSynthesizeNetlistAllocs(t *testing.T) {
	rand, err := gen.Generate(gen.Config{Nodes: 2000, MulCycles: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fir, err := gen.FIR(1024, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name          string
		g             *dfg.Graph
		bytes, allocs uint64
	}{
		{"gen2000", rand, 2_600_000, 7_000},
		{"fir1024", fir, 3_500_000, 21_000},
	} {
		cfg := Config{CS: c.g.CriticalPathCycles() + 4}
		run := func() {
			d, err := SynthesizeCtx(context.Background(), c.g, cfg)
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
		t.Logf("%s: %d bytes and %d allocations per synthesis", c.name, bytes, allocs)
		if bytes > c.bytes || allocs > c.allocs {
			t.Errorf("%s: %d bytes and %d allocations per synthesis, budget %d and %d",
				c.name, bytes, allocs, c.bytes, c.allocs)
		}
	}
}
