// Cancellation and resource-guard tests for the public facade: a
// cancelled or expired context must surface promptly (the issue's bar is
// 100ms) with ctx.Err() and no partial results, a never-cancelled
// context must change nothing about the results, and degenerate inputs
// must be rejected with the typed guard errors instead of hanging.
// These run under `go test -race ./...` as part of the tier-1 verify
// path, so the cancellation paths are also race-checked.
package hls_test

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	hls "repro"
	"repro/internal/benchmarks"
	"repro/internal/gen"
)

// benchGraphs returns all six paper benchmarks — the grid the issue's
// acceptance criterion names.
func benchGraphs() []*hls.Graph {
	var gs []*hls.Graph
	for _, ex := range benchmarks.All() {
		gs = append(gs, ex.Graph)
	}
	return gs
}

func TestSweepGraphsCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	points, err := hls.SweepGraphsCtx(ctx, benchGraphs(), hls.Config{}, 1, 21)
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("pre-cancelled sweep took %v, want < 100ms", d)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if points != nil {
		t.Fatalf("cancelled sweep returned partial results: %v", points)
	}
}

func TestSweepGraphsCtxMidFlightCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	type result struct {
		points [][]hls.SweepPoint
		err    error
	}
	done := make(chan result, 1)
	go func() {
		// The range must reach EWF's 17-cycle critical path: a range no
		// graph can meet is now a typed *hls.RangeError before any work
		// starts, which would win the race against the cancel below.
		p, err := hls.SweepGraphsCtx(ctx, benchGraphs(), hls.Config{}, 1, 21)
		done <- result{p, err}
	}()
	// Let the sweep get airborne, then pull the plug.
	time.Sleep(5 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case r := <-done:
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Fatalf("sweep returned %v after cancel, want < 100ms", d)
		}
		// The sweep may have finished legitimately before the cancel
		// landed; only a cancelled run must surface ctx.Err().
		if r.err != nil && !errors.Is(r.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled or nil", r.err)
		}
		if r.err != nil && r.points != nil {
			t.Fatal("cancelled sweep returned partial results alongside its error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sweep never returned after cancellation")
	}
}

func TestSweepCtxBackgroundMatchesSweep(t *testing.T) {
	ex := benchmarks.Diffeq()
	want, err := hls.Sweep(ex.Graph, hls.Config{}, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := hls.SweepCtx(context.Background(), ex.Graph, hls.Config{}, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SweepCtx(Background) differs from Sweep:\n got %+v\nwant %+v", got, want)
	}
}

func TestConfigTimeoutExpires(t *testing.T) {
	ex := benchmarks.Diffeq()
	start := time.Now()
	_, err := hls.Sweep(ex.Graph, hls.Config{Timeout: time.Nanosecond}, 1, 64)
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("expired sweep took %v, want < 100ms", d)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestMaxNodesGuard(t *testing.T) {
	ex := benchmarks.Diffeq()
	_, err := hls.Synthesize(ex.Graph, hls.Config{MaxNodes: 2, CS: 4})
	var le *hls.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *hls.LimitError", err)
	}
	if le.What != "graph nodes" || le.Max != 2 {
		t.Fatalf("unexpected limit error: %+v", le)
	}
}

func TestMaxCStepsGuard(t *testing.T) {
	ex := benchmarks.Diffeq()
	_, err := hls.ScheduleGraph(ex.Graph, hls.Config{CS: hls.DefaultMaxCSteps + 1})
	var le *hls.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *hls.LimitError", err)
	}
	// A negative knob disables the cap (the caller owns the risk).
	if _, err := hls.ScheduleGraph(ex.Graph, hls.Config{CS: 6, MaxCSteps: -1}); err != nil {
		t.Fatalf("disabled cap rejected a legal run: %v", err)
	}
}

func TestBadSweepRange(t *testing.T) {
	ex := benchmarks.Diffeq()
	for _, r := range [][2]int{{0, 4}, {5, 4}, {-3, -1}} {
		_, err := hls.Sweep(ex.Graph, hls.Config{}, r[0], r[1])
		var re *hls.RangeError
		if !errors.As(err, &re) {
			t.Fatalf("Sweep(%d, %d) err = %v, want *hls.RangeError", r[0], r[1], err)
		}
	}
	_, err := hls.Sweep(ex.Graph, hls.Config{}, 1, hls.DefaultMaxCSteps+1)
	var le *hls.LimitError
	if !errors.As(err, &le) {
		t.Fatalf("oversized sweep err = %v, want *hls.LimitError", err)
	}
}

// TestSynthesizeCtx100kNodeCancel pins the cancellation bar at the top
// of the engine's supported size range: mid-flight cancellation of a
// 100k-node synthesis — the guard.DefaultMaxNodes ceiling — must
// surface within 100ms, same as the small-graph tests above. Large
// runs use Config.NoTrace, matching the batch-mode recipe the scale
// ladder and README document.
func TestSynthesizeCtx100kNodeCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node graph build")
	}
	g, err := gen.Generate(gen.Config{Nodes: 100_000, Seed: 5, MulCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := hls.Config{CS: g.CriticalPathCycles() + 4, NoTrace: true}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := hls.SynthesizeCtx(ctx, g, cfg)
		done <- err
	}()
	// Let the run get deep into scheduling before pulling the plug: a
	// 100k-node synthesis takes tens of seconds, so 250ms lands the
	// cancel mid-flight with enormous margin against an early finish.
	time.Sleep(250 * time.Millisecond)
	// The 100ms bar is for normal builds; race instrumentation slows the
	// longest poll-free stretch (frame/priority setup) about tenfold.
	budget := 100 * time.Millisecond
	if raceEnabled {
		budget = time.Second
	}
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if d := time.Since(start); d > budget {
			t.Fatalf("synthesis returned %v after cancel, want < %v", d, budget)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("synthesis never returned after cancellation")
	}
}

// TestSynthesizeCtxCancelDuringSetup cancels the 100k-node synthesis
// of TestSynthesizeCtx100kNodeCancel 20ms after the call starts, while
// MFSA still validates the graph, computes frames, builds its state or
// orders the nodes. Those phases poll too, so the cancel must surface
// within the same bar.
func TestSynthesizeCtxCancelDuringSetup(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node graph build")
	}
	g, err := gen.Generate(gen.Config{Nodes: 100_000, Seed: 5, MulCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := hls.Config{CS: g.CriticalPathCycles() + 4, NoTrace: true}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := hls.SynthesizeCtx(ctx, g, cfg)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	budget := 100 * time.Millisecond
	if raceEnabled {
		budget = time.Second
	}
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if d := time.Since(start); d > budget {
			t.Fatalf("synthesis returned %v after cancel, want < %v", d, budget)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("synthesis never returned after cancellation")
	}
}

// TestScheduleGraphCtxCancelDuringSetup is
// TestSynthesizeCtxCancelDuringSetup for MFS: it cancels a 100k-node
// ScheduleGraphCtx 20ms after the call starts, while MFS still
// validates the graph, computes frames, builds its tables or orders the
// nodes. Setup polls between those phases, so the cancel must surface
// within the same bar.
func TestScheduleGraphCtxCancelDuringSetup(t *testing.T) {
	if testing.Short() {
		t.Skip("100k-node graph build")
	}
	g, err := gen.Generate(gen.Config{Nodes: 100_000, Seed: 5, MulCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	cfg := hls.Config{CS: g.CriticalPathCycles() + 4, NoTrace: true}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := hls.ScheduleGraphCtx(ctx, g, cfg)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	budget := 100 * time.Millisecond
	if raceEnabled {
		budget = time.Second
	}
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if d := time.Since(start); d > budget {
			t.Fatalf("scheduling returned %v after cancel, want < %v", d, budget)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("scheduling never returned after cancellation")
	}
}

// TestSynthesizeCtxDeadlineAtLargeCS pins the deadline inside one
// placement. Under weights that break time dominance (ALU weight 50)
// MFSA scores every free position of every move frame, and near the cs
// cap a single frame holds millions, so a run that polled only between
// placements would overrun a 50ms timeout by seconds (facet at cs 20000
// takes about 8s to finish). With the default weights the same run
// scores only the earliest feasible step and returns a design within
// the budget; its timeout is the budget itself, since the run's
// O(cs) frames, tables and controller take tens of milliseconds under
// the race detector.
func TestSynthesizeCtxDeadlineAtLargeCS(t *testing.T) {
	g := benchmarks.Facet().Graph
	budget := 250 * time.Millisecond
	if raceEnabled {
		budget = time.Second
	}
	for _, tc := range []struct {
		name    string
		weights [4]float64
		timeout time.Duration
		want    error
	}{
		{"full-scan", [4]float64{1, 50, 1, 1}, 50 * time.Millisecond, context.DeadlineExceeded},
		{"default-weights", [4]float64{}, budget, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Now()
			_, err := hls.SynthesizeCtx(context.Background(), g,
				hls.Config{CS: 20000, Weights: tc.weights, Timeout: tc.timeout})
			if d := time.Since(start); d > budget {
				t.Fatalf("synthesis returned after %v, want < %v", d, budget)
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestSynthesizeCtxPreCancelled(t *testing.T) {
	ex := benchmarks.Diffeq()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := hls.SynthesizeCtx(ctx, ex.Graph, hls.Config{CS: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SynthesizeCtx err = %v, want context.Canceled", err)
	}
	if _, err := hls.ScheduleGraphCtx(ctx, ex.Graph, hls.Config{CS: 4}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScheduleGraphCtx err = %v, want context.Canceled", err)
	}
	if _, err := hls.SynthesizeSourceCtx(ctx, "design d\ninput a\nx = a + a\n", hls.Config{CS: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("SynthesizeSourceCtx err = %v, want context.Canceled", err)
	}
}
