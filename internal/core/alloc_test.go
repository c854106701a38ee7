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
// it from 6.13 MB to 2.75 MB. The /lint rows add the lint gate, which
// re-emits the netlist and runs every analyzer: interning symbolic
// expressions by operand id, rendering no certificate text and auditing
// the graph over slices took gen2000 from 8.12 MB and 55,628 allocations
// to 4.25 MB and 12,924, and fir1024 from 9.17 MB and 114,096 to
// 6.79 MB and 30,392. Each budget leaves about a tenth of headroom or
// more.
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
		lint          bool
		bytes, allocs uint64
	}{
		{"gen2000", rand, false, 2_600_000, 7_000},
		{"fir1024", fir, false, 3_500_000, 21_000},
		{"gen2000/lint", rand, true, 4_700_000, 14_500},
		{"fir1024/lint", fir, true, 7_500_000, 34_000},
	} {
		cfg := Config{CS: c.g.CriticalPathCycles() + 4, Lint: c.lint}
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
