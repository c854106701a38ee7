package experiments

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/vet"
)

// MeasureVetCtx measures the `hlsbench -vet` snapshot: the wall time of
// the full hlsvet analyzer suite over every package of the module
// rooted at dir, once with one worker and once with GOMAXPROCS workers
// (best of two runs each — the dominant cost, the `go list -export`
// load, is warm after the first run), plus the determinism verdict: the
// two runs must emit byte-identical JSON. hlsvet runs on internal/pool —
// the same worker substrate it vets — so this snapshot is both a perf
// trajectory for the analyzers and a regression guard for that fan-out.
// The analyzer and finding counts pin the measured workload: a run with
// fewer analyzers or against a dirtier tree is not comparable.
func MeasureVetCtx(ctx context.Context, dir string) (*Snapshot, error) {
	analyzers := vet.Analyzers()
	run := func(workers int) ([]byte, int, timing, error) {
		var rendered bytes.Buffer
		findings := 0
		t, err := bestOf(2, func() error {
			ds, err := vet.CheckParallel(ctx, dir, []string{"./..."}, analyzers, workers)
			if err != nil {
				return fmt.Errorf("experiments: vet snapshot (workers=%d): %w", workers, err)
			}
			rendered.Reset()
			vet.PrintJSON(&rendered, ds)
			findings = len(ds)
			return nil
		})
		return rendered.Bytes(), findings, t, err
	}
	seqJSON, _, seq, err := run(1)
	if err != nil {
		return nil, err
	}
	parJSON, findings, par, err := run(0)
	if err != nil {
		return nil, err
	}
	return newSnapshot("vet", []Metric{
		info("vet/analyzers", float64(len(analyzers)), "analyzers", ""),
		{Name: "vet/findings", Value: float64(findings), Unit: "findings", Exact: true},
		wall("vet/sequential", seq.wall),
		wall("vet/parallel", par.wall),
		info("vet/speedup", seq.wall.Seconds()/par.wall.Seconds(), "x", "higher"),
		verdict("vet/identical_results", bytes.Equal(seqJSON, parJSON)),
	}), nil
}
