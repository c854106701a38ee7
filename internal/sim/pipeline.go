package sim

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/sched"
)

// PipelineRun is the result of simulating a functionally pipelined
// schedule over several loop initiations.
type PipelineRun struct {
	// Iterations holds each initiation's full signal valuation.
	Iterations []map[string]int64

	// TotalSteps is the makespan: with initiation interval L and k
	// iterations of a cs-step body, (k−1)·L + cs.
	TotalSteps int

	// Throughput is the steady-state initiation interval (the schedule's
	// Latency).
	Throughput int
}

// RunPipelined simulates k consecutive initiations of a functionally
// pipelined schedule (§5.5.2), one input vector per initiation. Each
// initiation executes the full body; the folded schedule guarantees the
// overlapped initiations never contend for a functional unit, which the
// expansion check in internal/mfs proves structurally — here the value
// semantics of every iteration are verified against the behavioral
// reference, and the pipelined makespan is reported.
func RunPipelined(s *sched.Schedule, inputs []map[string]int64) (*PipelineRun, error) {
	return RunPipelinedCtx(context.Background(), s, inputs)
}

// RunPipelinedCtx is RunPipelined with cancellation: ctx is observed by
// every iteration's simulation.
func RunPipelinedCtx(ctx context.Context, s *sched.Schedule, inputs []map[string]int64) (*PipelineRun, error) {
	if s.Latency <= 0 {
		return nil, fmt.Errorf("sim: RunPipelined needs a functionally pipelined schedule")
	}
	if len(inputs) == 0 {
		return nil, fmt.Errorf("sim: no iterations")
	}
	run := &PipelineRun{
		Throughput: s.Latency,
		TotalSteps: (len(inputs)-1)*s.Latency + s.CS,
	}
	p := compile(s, nil)
	for k, in := range inputs {
		got := make([]int64, s.Graph.NumSignals())
		if err := p.run(ctx, in, got); err != nil {
			return nil, fmt.Errorf("sim: iteration %d: %w", k, err)
		}
		want := slices.Clone(got) // the inputs; the reference overwrites the nodes
		if err := s.Graph.EvalSignals(want); err != nil {
			return nil, fmt.Errorf("sim: iteration %d reference: %w", k, err)
		}
		//hls:ctxok O(nodes) value comparison; the enclosing iteration loop is cancelled through p.run
		for _, n := range s.Graph.Nodes() {
			if v, w := got[n.OutID()], want[n.OutID()]; v != w {
				return nil, fmt.Errorf("sim: iteration %d: %q = %d, reference %d", k, n.Name, v, w)
			}
		}
		run.Iterations = append(run.Iterations, p.named(got))
	}
	return run, nil
}
