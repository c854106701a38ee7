package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestSize(t *testing.T) {
	if got := Size(3); got != 3 {
		t.Errorf("Size(3) = %d", got)
	}
	if got := Size(0); got < 1 {
		t.Errorf("Size(0) = %d, want >= 1", got)
	}
	if got := Size(-2); got < 1 {
		t.Errorf("Size(-2) = %d, want >= 1", got)
	}
}

// TestSizeFor pins the grain of the default: 0 runs a fan-out inside a
// design below GrainNodes on one worker and one of GrainNodes or more on
// GOMAXPROCS, while an explicit worker count holds at any size.
func TestSizeFor(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ n, nodes, want int }{
		{0, 0, 1},
		{0, 7, 1},
		{0, GrainNodes - 1, 1},
		{0, GrainNodes, procs},
		{0, 2000, procs},
		{1, 2000, 1},
		{2, 7, 2},
		{4, GrainNodes - 1, 4},
		{8, GrainNodes, 8},
		{16, 2000, 16},
	} {
		if got := SizeFor(tc.n, tc.nodes); got != tc.want {
			t.Errorf("SizeFor(%d, %d) = %d, want %d", tc.n, tc.nodes, got, tc.want)
		}
	}
}

func TestMapOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		out, err := Map(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: len = %d", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Errorf("Map(_, 0) = %v, %v; want nil, nil", out, err)
	}
}

// TestMapSmallestError checks the determinism guarantee: among several
// failing indices the reported error is the lowest-index one — what a
// sequential loop would have stopped on.
func TestMapSmallestError(t *testing.T) {
	for _, workers := range []int{1, 4, 32} {
		_, err := Map(workers, 50, func(i int) (int, error) {
			if i%7 == 3 { // fails at 3, 10, 17, ...
				return 0, fmt.Errorf("fail at %d", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "fail at 3" {
			t.Errorf("workers=%d: err = %v, want fail at 3", workers, err)
		}
	}
}

// TestMapWorkerBound checks the pool really is bounded: the peak number
// of concurrently running fn calls never exceeds the requested workers.
func TestMapWorkerBound(t *testing.T) {
	const workers = 4
	var running, peak atomic.Int64
	_, err := Map(workers, 200, func(i int) (int, error) {
		cur := running.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		defer running.Add(-1)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d > %d workers", p, workers)
	}
}

// TestSearchMinMatchesSequential runs SearchMin against its sequential
// definition on a family of feasibility predicates, including
// non-monotone ones (a heuristic scheduler may succeed at cs and fail at
// cs+1), at several worker counts.
func TestSearchMinMatchesSequential(t *testing.T) {
	preds := []func(i int) bool{
		func(i int) bool { return i >= 13 },          // monotone threshold
		func(i int) bool { return i == 0 },           // immediate
		func(i int) bool { return false },            // infeasible everywhere
		func(i int) bool { return i == 29 },          // last candidate only
		func(i int) bool { return i%5 == 4 },         // periodic
		func(i int) bool { return i == 7 || i > 20 }, // non-monotone gap
	}
	const n = 30
	for pi, feasible := range preds {
		fn := func(i int) (string, error) {
			if feasible(i) {
				return fmt.Sprintf("sched@%d", i), nil
			}
			return "", fmt.Errorf("infeasible at %d", i)
		}
		wantIdx, wantV, wantErr := SearchMin(1, n, fn)
		for _, workers := range []int{2, 3, 8, 64} {
			idx, v, err := SearchMin(workers, n, fn)
			if idx != wantIdx || v != wantV {
				t.Errorf("pred %d workers %d: got (%d, %q), want (%d, %q)",
					pi, workers, idx, v, wantIdx, wantV)
			}
			if (err == nil) != (wantErr == nil) ||
				(err != nil && err.Error() != wantErr.Error()) {
				t.Errorf("pred %d workers %d: err = %v, want %v", pi, workers, err, wantErr)
			}
		}
	}
}

// TestSearchMinEmpty pins the empty-search contract: n <= 0 means no
// candidate was ever probed, so the call must fail with a typed
// *EmptySearchError instead of the success-shaped (-1, zero, nil) it
// used to return. The table covers both the sequential (workers <= 1)
// and windowed (workers > 1) paths.
func TestSearchMinEmpty(t *testing.T) {
	for _, tc := range []struct {
		name       string
		workers, n int
	}{
		{"sequential/zero", 1, 0},
		{"sequential/negative", 1, -3},
		{"windowed/zero", 8, 0},
		{"windowed/negative", 8, -3},
		{"resolved-default/zero", Size(0), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			called := false
			idx, v, err := SearchMin(tc.workers, tc.n, func(i int) (string, error) {
				called = true
				return "never", nil
			})
			if called {
				t.Error("fn was called for an empty candidate range")
			}
			if idx != -1 || v != "" {
				t.Errorf("got (%d, %q), want (-1, \"\")", idx, v)
			}
			var ese *EmptySearchError
			if !errors.As(err, &ese) {
				t.Fatalf("err = %v, want *EmptySearchError", err)
			}
			if ese.N != tc.n {
				t.Errorf("EmptySearchError.N = %d, want %d", ese.N, tc.n)
			}
		})
	}
}

// TestSearchMinEmptyCancelled: cancellation still dominates the empty
// range, matching every other Ctx path in the package.
func TestSearchMinEmptyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	idx, _, err := SearchMinCtx(ctx, 4, 0, func(i int) (int, error) { return 0, nil })
	if idx != -1 || !errors.Is(err, context.Canceled) {
		t.Errorf("got (%d, %v), want (-1, context.Canceled)", idx, err)
	}
}
