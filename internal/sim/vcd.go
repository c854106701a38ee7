package sim

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/sched"
)

// TraceVCD simulates a schedule and writes a Value Change Dump (IEEE
// 1364 §18) of every signal to w: inputs are driven at time 0 and each
// node's value appears at the end of its finish step (one timescale unit
// per control step). The dump can be inspected with any waveform viewer;
// tests parse it back to cross-check the simulation. A failed write
// stops the dump and is returned.
func TraceVCD(s *sched.Schedule, inputs map[string]int64, w io.Writer) error {
	vals, err := Run(s, inputs)
	if err != nil {
		return err
	}
	g := s.Graph

	// Stable signal order: inputs then nodes.
	var names []string
	names = append(names, g.Inputs()...)
	for _, n := range g.Nodes() {
		names = append(names, n.Name)
	}
	ids := make(map[string]string, len(names))
	for i, name := range names {
		ids[name] = vcdID(i)
	}

	vw := &vcdWriter{w: w}
	vw.printf("$timescale 1ns $end\n")
	vw.printf("$scope module %s $end\n", g.Name)
	for _, name := range names {
		vw.printf("$var wire 64 %s %s $end\n", ids[name], name)
	}
	vw.printf("$upscope $end\n$enddefinitions $end\n")

	// Time 0: inputs.
	vw.printf("#0\n")
	for _, in := range g.Inputs() {
		vw.change(ids[in], vals[in])
	}
	// One tick per control step: nodes finishing in that step.
	byStep := make(map[int][]string)
	for _, n := range g.Nodes() {
		p, _ := s.At(n.ID)
		finish := p.Step + n.Cycles - 1
		byStep[finish] = append(byStep[finish], n.Name)
	}
	for step := 1; step <= s.CS; step++ {
		sigs := byStep[step]
		if len(sigs) == 0 {
			continue
		}
		sort.Strings(sigs)
		vw.printf("#%d\n", step)
		for _, sig := range sigs {
			vw.change(ids[sig], vals[sig])
		}
	}
	return vw.err
}

// vcdWriter writes a dump, keeping the first write error and skipping
// every write after it.
type vcdWriter struct {
	w   io.Writer
	err error
}

func (v *vcdWriter) printf(format string, args ...any) {
	if v.err == nil {
		_, v.err = fmt.Fprintf(v.w, format, args...)
	}
}

// change writes one signal's value.
func (v *vcdWriter) change(id string, val int64) {
	v.printf("b%b %s\n", uint64(val), id)
}

// vcdID maps an index to a compact printable identifier (! through ~).
func vcdID(i int) string {
	const lo, hi = 33, 126
	n := hi - lo + 1
	out := ""
	for {
		out += string(rune(lo + i%n))
		i /= n
		if i == 0 {
			return out
		}
		i--
	}
}
