package sched

import (
	"fmt"
	"sort"
	"strings"
)

// Gantt renders the schedule as an ASCII Gantt chart: one row per
// functional-unit instance, one column per control step, multicycle
// operations extending across their duration and exclusive co-residents
// stacked with '/'. Structural-pipelining overlaps show each operation
// at its start step.
func (s *Schedule) Gantt() string {
	type row struct {
		key   string
		cells []string
	}
	rowOf := make(map[string]*row)
	var keys []string
	for _, n := range s.Graph.Nodes() {
		p, ok := s.At(n.ID)
		if !ok {
			continue
		}
		key := fmt.Sprintf("%s#%d", p.Type, p.Index)
		r, ok := rowOf[key]
		if !ok {
			r = &row{key: key, cells: make([]string, s.CS+1)}
			rowOf[key] = r
			keys = append(keys, key)
		}
		cyc := n.Cycles
		if s.PipelinedTypes[p.Type] {
			cyc = 1
		}
		for i := 0; i < cyc && p.Step+i <= s.CS; i++ {
			label := n.Name
			if i > 0 {
				label = strings.Repeat(".", len(n.Name))
			}
			if r.cells[p.Step+i] != "" {
				label = r.cells[p.Step+i] + "/" + label
			}
			r.cells[p.Step+i] = label
		}
	}
	sort.Strings(keys)

	width := 6
	for _, key := range keys {
		for _, c := range rowOf[key].cells {
			if len(c) > width {
				width = len(c)
			}
		}
	}
	nameW := 8
	for _, key := range keys {
		if len(key) > nameW {
			nameW = len(key)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s", nameW+2, "unit")
	for t := 1; t <= s.CS; t++ {
		fmt.Fprintf(&b, " %-*s", width, fmt.Sprintf("t%d", t))
	}
	b.WriteByte('\n')
	for _, key := range keys {
		fmt.Fprintf(&b, "%-*s", nameW+2, key)
		for t := 1; t <= s.CS; t++ {
			cell := rowOf[key].cells[t]
			if cell == "" {
				cell = "."
			}
			fmt.Fprintf(&b, " %-*s", width, cell)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Utilization reports, per FU type, the fraction of instance-cycles the
// schedule keeps busy: total occupied cycles over instances × span,
// where span is the initiation interval for functionally pipelined
// schedules and CS otherwise. It quantifies the balance MFS optimizes
// for.
func (s *Schedule) Utilization() map[string]float64 {
	span := s.CS
	if s.Latency > 0 {
		span = s.Latency
	}
	busy := make(map[string]int)
	for _, n := range s.Graph.Nodes() {
		p, ok := s.At(n.ID)
		if !ok {
			continue
		}
		cyc := n.Cycles
		if s.PipelinedTypes[p.Type] {
			cyc = 1
		}
		busy[p.Type] += cyc
	}
	insts := s.InstancesPerType()
	out := make(map[string]float64, len(busy))
	for _, typ := range s.TypeNames() {
		if inst := insts[typ]; inst != 0 && span != 0 {
			out[typ] = float64(busy[typ]) / float64(inst*span)
		}
	}
	return out
}
