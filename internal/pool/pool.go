// Package pool is the bounded worker pool behind every parallel hot
// path of the synthesis engine: time-constraint sweeps (core.Sweep,
// core.SweepGraphs), the speculative resource-constrained search in MFS,
// and the experiment tables. Its primitives are deterministic: results
// come back in input order, the error reported is the one the equivalent
// sequential loop would have reported, and worker functions are expected
// to be pure (no shared mutable state), so every parallelism setting —
// including 1 — produces byte-identical output.
//
// Two hardening guarantees hold on every path:
//
//   - Cancellation: the Ctx variants stop dispatching new indices as
//     soon as ctx is done and return ctx.Err() (context.Canceled or
//     context.DeadlineExceeded), never a partial result. In-flight
//     calls are allowed to finish; worker functions that can run long
//     should observe the same ctx themselves so a cancelled pool call
//     returns promptly.
//   - Panic isolation: a worker function that panics does not crash the
//     process. The panic is recovered on the worker goroutine and
//     converted into a *guard.InternalError carrying the stack, which
//     then flows through the normal error path.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/guard"
)

// EmptySearchError reports a SearchMin or SearchMinCtx call over an
// empty candidate range (n <= 0): no candidate was ever probed, so
// there is no committed index and no last probe error to surface.
// Before this type existed the call returned (-1, zero, nil) — a
// success-shaped failure whose nil error masked that the search never
// ran, and whose -1 index crashed callers that indexed with it.
type EmptySearchError struct {
	// N is the candidate count the search was asked to cover.
	N int
}

func (e *EmptySearchError) Error() string {
	return fmt.Sprintf("search over %d candidates: no candidate was probed", e.N)
}

// Size resolves a parallelism setting to a worker count: n > 0 is used
// as given, anything else selects runtime.GOMAXPROCS(0). It sizes the
// fan-outs whose items are whole designs or packages (sweep points,
// experiment rows, the hlsvet loader); a fan-out inside one design is
// sized by SizeFor.
func Size(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// GrainNodes is the smallest design, in graph nodes, whose own fan-outs
// (the lint analyzers, the speculative cs window of the
// resource-constrained MFS search) the default parallelism spreads over
// GOMAXPROCS. Below it a fan-out's fixed cost of waking a second core
// exceeds the work it hands over; DESIGN.md §7 records the sizing.
const GrainNodes = 64

// SizeFor resolves a parallelism setting for a fan-out inside one design
// of the given node count: n > 0 is used as given at any size; 0 selects
// runtime.GOMAXPROCS(0) from GrainNodes nodes up and 1, the sequential
// path on the caller's goroutine, below. Every result is identical at
// every worker count, so the grain moves only time.
func SizeFor(n, nodes int) int {
	if n <= 0 && nodes < GrainNodes {
		return 1
	}
	return Size(n)
}

// call invokes fn(i) with the pool's panic boundary: a panic inside fn
// becomes a *guard.InternalError instead of unwinding the worker
// goroutine (which would crash the whole process, since nothing above a
// goroutine's entry point can recover it).
func call[T any](fn func(i int) (T, error), i int) (v T, err error) {
	defer guard.Recover("pool worker", &err)
	return fn(i)
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines and
// returns the n results in index order. If any call fails, Map returns
// the error with the smallest index — exactly the error a sequential
// loop would have stopped on — and workers stop picking up new indices
// (in-flight calls still complete). fn must be safe for concurrent use.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), workers, n, fn)
}

// MapCtx is Map with cancellation: workers stop dispatching new indices
// once ctx is done, and the call returns ctx.Err() instead of a partial
// result. With a never-done ctx the semantics (and the results) are
// exactly Map's.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		out := make([]T, n)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := call(fn, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return out, nil
	}

	out := make([]T, n)
	var (
		next   atomic.Int64
		failed atomic.Bool
		mu     sync.Mutex
		errIdx = n
		first  error
		wg     sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n || failed.Load() || ctx.Err() != nil {
					return
				}
				v, err := call(fn, i)
				if err != nil {
					failed.Store(true)
					mu.Lock()
					if i < errIdx {
						errIdx, first = i, err
					}
					mu.Unlock()
					return
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	// Cancellation dominates: a cancelled run may have skipped indices,
	// so its partial output must never be observable.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if first != nil {
		return nil, first
	}
	return out, nil
}

// SearchMin returns the smallest i in [0, n) for which fn succeeds,
// together with fn's result — the parallel form of the classic
// "try cs = lo, lo+1, ... until one fits" loop. Windows of `workers`
// consecutive candidates are probed speculatively and the smallest
// success in the earliest non-empty window commits; every candidate
// below it has provably failed, so the committed index (and, for a
// deterministic fn, the committed result) is exactly the sequential
// loop's. When no candidate succeeds, the error of the last (highest)
// candidate is returned, again matching the sequential loop. Probes
// above the committed index are wasted work, never observable state:
// fn must be side-effect free and safe for concurrent use.
//
// The error contract: a success returns (i, v, nil) with 0 <= i < n;
// every failure returns index -1 with a non-nil error — the last
// candidate's error when all n probes failed, ctx.Err() on
// cancellation, and a *EmptySearchError when n <= 0 (no candidate
// exists to probe, so no probe error can stand in for the failure).
// The index is never -1 alongside a nil error.
func SearchMin[T any](workers, n int, fn func(i int) (T, error)) (int, T, error) {
	return SearchMinCtx(context.Background(), workers, n, fn)
}

// SearchMinCtx is SearchMin with cancellation: no new probe window
// starts once ctx is done, and the call returns ctx.Err() with index -1
// instead of committing a result. With a never-done ctx the semantics
// (and the committed index) are exactly SearchMin's.
func SearchMinCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) (int, T, error) {
	var zero T
	var lastErr error
	if n <= 0 {
		// Checked on both the sequential and windowed paths' behalf:
		// neither loop body runs for n <= 0, and without this the call
		// would fall through to `return -1, zero, lastErr` with lastErr
		// never assigned — the success-shaped (-1, zero, nil) failure.
		if err := ctx.Err(); err != nil {
			return -1, zero, err
		}
		return -1, zero, &EmptySearchError{N: n}
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return -1, zero, err
			}
			v, err := call(fn, i)
			if err == nil {
				return i, v, nil
			}
			lastErr = err
		}
		if err := ctx.Err(); err != nil {
			return -1, zero, err
		}
		return -1, zero, lastErr
	}

	type probe struct {
		v   T
		err error
	}
	for base := 0; base < n; base += workers {
		if err := ctx.Err(); err != nil {
			return -1, zero, err
		}
		w := workers
		if base+w > n {
			w = n - base
		}
		results := make([]probe, w)
		var wg sync.WaitGroup
		//hls:ctxok spawns at most `workers` probes; the enclosing window loop polls ctx before and after every window
		for j := 0; j < w; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				v, err := call(fn, base+j)
				results[j] = probe{v, err}
			}(j)
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return -1, zero, err
		}
		for j := 0; j < w; j++ {
			if results[j].err == nil {
				return base + j, results[j].v, nil
			}
		}
		lastErr = results[w-1].err
	}
	if err := ctx.Err(); err != nil {
		return -1, zero, err
	}
	return -1, zero, lastErr
}
