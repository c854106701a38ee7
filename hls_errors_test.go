package hls_test

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"testing"

	hls "repro"
	"repro/internal/benchmarks"
	"repro/internal/library"
)

// TestNegativeLimitIsConfigError sends negative instance limits, keyed
// by unit and by operation, through every entry point that takes them:
// each must refuse the config with a ConfigError naming the key, before
// an engine sizes anything by the limit.
func TestNegativeLimitIsConfigError(t *testing.T) {
	g := benchmarks.Diffeq().Graph
	for _, lim := range []struct {
		key string
		v   int
	}{{"fu_mul", -3}, {"*", -1}} {
		limits := map[string]int{lim.key: lim.v, "fu_add": 2}
		for _, call := range []struct {
			name string
			run  func() error
		}{
			{"Synthesize", func() error { _, err := hls.Synthesize(g, hls.Config{CS: 4, Limits: limits}); return err }},
			{"ScheduleGraph/time", func() error { _, err := hls.ScheduleGraph(g, hls.Config{CS: 4, Limits: limits}); return err }},
			{"ScheduleGraph/resource", func() error { _, err := hls.ScheduleGraph(g, hls.Config{Limits: limits}); return err }},
			{"Sweep", func() error { _, err := hls.Sweep(g, hls.Config{Limits: limits}, 4, 6); return err }},
		} {
			err := call.run()
			var ce *hls.ConfigError
			if !errors.As(err, &ce) || ce.Field != "Limits" || ce.Key != lim.key || ce.Value != lim.v {
				t.Errorf("%s with %v: %T %v, want a ConfigError naming %q", call.name, limits, err, err, lim.key)
			}
		}
	}
}

// TestUnhonorableConfigIsConfigError sends configs that every entry
// point used to accept without effect or fail on with an untyped or
// false error: a limit on a key that names no FU type of the engine (an
// op symbol for MFSA, a unit for MFS), a style outside 0–2, a negative,
// NaN, infinite or overflowing clock, a negative latency or one above
// the time constraint, a latency on a resource-constrained run, which
// has no time constraint to fold, a pipelined op that names no
// operation, a negative worker count, and a negative or (where the run
// needs one) zero time constraint. Each must be refused with a
// ConfigError naming the field and the key.
func TestUnhonorableConfigIsConfigError(t *testing.T) {
	g := benchmarks.Diffeq().Graph
	ops := map[string]int{"*": 2, "+": 1, "-": 1, "<": 1}
	entries := []struct {
		name    string
		foreign string // a limit key of the other engine
		timed   bool   // runs under time constraints of 4 steps and up
		ownCS   bool   // the time constraint is cfg.CS, so it must be set
		base    hls.Config
		run     func(hls.Config) error
	}{
		{"Synthesize", "*", true, true, hls.Config{CS: 4}, func(c hls.Config) error { _, err := hls.Synthesize(g, c); return err }},
		{"ScheduleGraph/time", "fu_mul", true, true, hls.Config{CS: 4}, func(c hls.Config) error { _, err := hls.ScheduleGraph(g, c); return err }},
		{"ScheduleGraph/resource", "fu_mul", false, false, hls.Config{Limits: ops}, func(c hls.Config) error { _, err := hls.ScheduleGraph(g, c); return err }},
		{"Sweep", "*", true, false, hls.Config{}, func(c hls.Config) error { _, err := hls.Sweep(g, c, 4, 6); return err }},
	}
	// A case's scope names the entries that refuse it.
	type scope int
	const (
		everyEntry   scope = iota
		timedEntry         // the check compares against the time constraint
		ownCSEntry         // the time constraint is cfg.CS, so it must be set
		untimedEntry       // the run has no time constraint
	)
	cases := []struct {
		name, field, key string // key "" on Limits: the entry's foreign key
		scope            scope
		set              func(c *hls.Config, foreign string)
	}{
		{"limit on a foreign key", "Limits", "", everyEntry, func(c *hls.Config, foreign string) {
			c.Limits = maps.Clone(c.Limits)
			if c.Limits == nil {
				c.Limits = map[string]int{}
			}
			c.Limits[foreign] = 1
		}},
		{"style 7", "Style", "", everyEntry, func(c *hls.Config, _ string) { c.Style = 7 }},
		{"negative clock", "ClockNs", "", everyEntry, func(c *hls.Config, _ string) { c.ClockNs = -5 }},
		{"NaN clock", "ClockNs", "", everyEntry, func(c *hls.Config, _ string) { c.ClockNs = math.NaN() }},
		{"infinite clock", "ClockNs", "", everyEntry, func(c *hls.Config, _ string) { c.ClockNs = math.Inf(1) }},
		{"overflowing clock", "ClockNs", "", everyEntry, func(c *hls.Config, _ string) { c.ClockNs = 1e308 }},
		{"negative latency", "Latency", "", everyEntry, func(c *hls.Config, _ string) { c.Latency = -1 }},
		{"latency above cs", "Latency", "", timedEntry, func(c *hls.Config, _ string) { c.Latency = 9 }},
		{"unknown pipelined op", "PipelinedOps", "0", everyEntry, func(c *hls.Config, _ string) { c.PipelinedOps = []string{"%%"} }},
		{"NaN weight", "Weights", "1", everyEntry, func(c *hls.Config, _ string) { c.Weights[1] = math.NaN() }},
		{"infinite weight", "Weights", "0", everyEntry, func(c *hls.Config, _ string) { c.Weights[0] = math.Inf(1) }},
		{"negative infinite weight", "Weights", "3", everyEntry, func(c *hls.Config, _ string) { c.Weights[3] = math.Inf(-1) }},
		{"negative parallelism", "Parallelism", "", everyEntry, func(c *hls.Config, _ string) { c.Parallelism = -5 }},
		{"negative cs", "CS", "", everyEntry, func(c *hls.Config, _ string) { c.CS = -3 }},
		{"zero cs", "CS", "", ownCSEntry, func(c *hls.Config, _ string) { c.CS = 0 }},
		{"latency without cs", "Latency", "", untimedEntry, func(c *hls.Config, _ string) { c.Latency = 2 }},
	}
	for _, e := range entries {
		refuses := [...]bool{everyEntry: true, timedEntry: e.timed, ownCSEntry: e.ownCS, untimedEntry: !e.timed}
		for _, tc := range cases {
			if !refuses[tc.scope] {
				continue
			}
			cfg := e.base
			tc.set(&cfg, e.foreign)
			key := tc.key
			if tc.field == "Limits" {
				key = e.foreign
			}
			err := e.run(cfg)
			var ce *hls.ConfigError
			if !errors.As(err, &ce) || ce.Field != tc.field || ce.Key != key {
				t.Errorf("%s, %s: %T %v, want a ConfigError naming %s[%q]", e.name, tc.name, err, err, tc.field, key)
			}
		}
	}
	// A negative weight is a valid emphasis, not an error, and a clock
	// of 1e307 ns spans diffeq's 8 steps without overflow.
	if _, err := hls.Synthesize(g, hls.Config{CS: 4, Weights: [4]float64{1, 1, -1, 1}}); err != nil {
		t.Errorf("negative mux weight: %v", err)
	}
	if _, err := hls.Synthesize(g, hls.Config{CS: 8, ClockNs: 1e307}); err != nil {
		t.Errorf("clock 1e307 at cs 8: %v", err)
	}
}

// TestNoPositionIsTyped caps every unit at one instance at the critical
// path, where both engines run out of positions on four paper graphs,
// and sends MFSA a folded loop: the failures are typed, and their text
// is what the engines always printed.
func TestNoPositionIsTyped(t *testing.T) {
	units := map[string]int{}
	for _, u := range library.NCRLike().Units() {
		units[u.Name] = 1
	}
	for _, ex := range benchmarks.All() {
		switch ex.Name {
		case "diffeq", "ar-lattice", "bandpass", "ewf":
		default:
			continue
		}
		cp := ex.Graph.CriticalPathCycles()
		_, err := hls.Synthesize(ex.Graph, hls.Config{CS: cp, Limits: units})
		var pe *hls.NoPositionError
		if !errors.As(err, &pe) || pe.Engine != "mfsa" || len(pe.Units) == 0 || pe.Lo < 1 || pe.Hi < pe.Lo ||
			err.Error() != fmt.Sprintf("mfsa: %s: no position for %q within %d steps", ex.Name, pe.Node, cp) {
			t.Errorf("%s: MFSA fails with %T %v", ex.Name, err, err)
		}
		ops := map[string]int{}
		for _, n := range ex.Graph.Nodes() {
			ops[n.Op.String()] = 1
		}
		_, err = hls.ScheduleGraph(ex.Graph, hls.Config{CS: cp, Limits: ops})
		if !errors.As(err, &pe) || pe.Engine != "mfs" || len(pe.Units) != 1 ||
			err.Error() != fmt.Sprintf("mfs: %s: no position for %q within 1 %s units and %d steps", ex.Name, pe.Node, pe.Units[0], cp) {
			t.Errorf("%s: MFS fails with %T %v", ex.Name, err, err)
		}
	}
	src := "design smoother\ninput start, coeff\nloop smooth cycles 2 binds acc = start, d = coeff yields nxt {\n" +
		"    half = acc >> 1\n    nxt = half + d\n}\nfinal = smooth * 3\n"
	_, err := hls.SynthesizeSource(src, hls.Config{CS: 4})
	var le *hls.LoopError
	if !errors.As(err, &le) || le.Node != "smooth" {
		t.Errorf("loop: %T %v, want a LoopError naming the loop", err, err)
	}
}
