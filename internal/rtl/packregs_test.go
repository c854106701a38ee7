package rtl

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dfg"
)

// packScan is the historical all-pairs first-fit, kept as the oracle the
// segment-tree rewrite must match byte for byte (grouping AND order).
func packScan(g *dfg.Graph, ivals []Interval) [][]Interval {
	live := make([]Interval, 0, len(ivals))
	for _, iv := range ivals {
		if iv.Stored() {
			live = append(live, iv)
		}
	}
	// Same sort as PackRegisters.
	for i := 1; i < len(live); i++ {
		for j := i; j > 0; j-- {
			a, b := live[j-1], live[j]
			if a.Birth < b.Birth || (a.Birth == b.Birth && (a.Death < b.Death ||
				(a.Death == b.Death && g.SignalName(a.Signal) <= g.SignalName(b.Signal)))) {
				break
			}
			live[j-1], live[j] = live[j], live[j-1]
		}
	}
	var regs [][]Interval
next:
	for _, iv := range live {
		for r := range regs {
			conflict := false
			for _, o := range regs[r] {
				if iv.overlaps(o) {
					conflict = true
					break
				}
			}
			if !conflict {
				regs[r] = append(regs[r], iv)
				continue next
			}
		}
		regs = append(regs, []Interval{iv})
	}
	return regs
}

// TestPackRegistersMatchesScanOracle drives random lifetime sets through
// the O(N log R) packer and the historical scan and requires identical
// output, including degenerate (unstored) and duplicate intervals.
func TestPackRegistersMatchesScanOracle(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(120)
		names := make([]string, n/2+1)
		for i := range names {
			names[i] = fmt.Sprintf("v%d", i)
		}
		g := inputGraph(t, names...)
		ivals := make([]Interval, n)
		for i := range ivals {
			b := rng.Intn(30)
			ivals[i] = Interval{
				Signal: sig(t, g, names[i%len(names)]), // occasional duplicate signals
				Birth:  b,
				Death:  b + rng.Intn(8), // sometimes unstored (Death == Birth)
			}
		}
		got := PackRegisters(g, ivals)
		want := packScan(g, ivals)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: packing differs\n got: %v\nwant: %v", seed, got, want)
		}
	}
}

// TestPackRegistersEmpty pins the nil-for-empty contract.
func TestPackRegistersEmpty(t *testing.T) {
	g := inputGraph(t, "x")
	if got := PackRegisters(g, nil); got != nil {
		t.Fatalf("PackRegisters(nil) = %v, want nil", got)
	}
	if got := PackRegisters(g, []Interval{{Signal: sig(t, g, "x"), Birth: 2, Death: 2}}); got != nil {
		t.Fatalf("all-unstored input packed to %v, want nil", got)
	}
}
