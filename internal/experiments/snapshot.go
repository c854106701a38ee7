package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// schemaVersion is the snapshot format this build writes and reads.
const schemaVersion = 2

// Snapshot is the machine-readable record every measuring mode of
// `hlsbench` writes: -json to BENCH_sweep.json, -scale to
// BENCH_scale.json, -serve to BENCH_serve.json and -vet to
// BENCH_vet.json. A committed snapshot is the baseline a later run is
// checked against with CompareSnapshots. DESIGN.md §12 describes the
// format and the comparison rule.
type Snapshot struct {
	SchemaVersion int `json:"schema_version"`

	// Mode is the hlsbench flag that wrote the snapshot: json, scale,
	// serve or vet. LoadSnapshot refuses a file written by another mode.
	Mode string `json:"mode"`

	Env     Env      `json:"env"`
	Metrics []Metric `json:"metrics"`
}

// Env records where a snapshot was measured. It is captured after the
// timed work, so it states the parallelism the measurements actually
// ran under even if something resized GOMAXPROCS mid-run.
type Env struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu,omitempty"`
}

// Metric is one named measurement.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`

	// Better is "lower" or "higher" for a figure with a direction and
	// empty for a descriptive count such as rows or nodes.
	Better string `json:"better,omitempty"`

	// Exact marks a figure a fresh run must reproduce exactly: a
	// correctness verdict, such as a determinism check or the cache hit
	// rate, or a deterministic count, such as the candidates a scale
	// rung scores. Booleans are recorded as 1 (true) and 0 (false).
	Exact bool `json:"exact,omitempty"`
}

// wall is a timed measurement, held to the comparison tolerance.
func wall(name string, d time.Duration) Metric {
	return Metric{Name: name, Value: millis(d), Unit: "ms", Better: "lower"}
}

// info is a figure the delta table shows but that never fails a
// comparison.
func info(name string, v float64, unit, better string) Metric {
	return Metric{Name: name, Value: v, Unit: unit, Better: better}
}

// verdict is an exact pass/fail check.
func verdict(name string, ok bool) Metric {
	m := Metric{Name: name, Unit: "bool", Exact: true}
	if ok {
		m.Value = 1
	}
	return m
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// newSnapshot stamps metrics with the environment. Call it after the
// timed work (see Env).
func newSnapshot(mode string, metrics []Metric) *Snapshot {
	return &Snapshot{
		SchemaVersion: schemaVersion,
		Mode:          mode,
		Env: Env{
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			NumCPU:     runtime.NumCPU(),
		},
		Metrics: metrics,
	}
}

// timing is one timed repetition and its allocation footprint.
type timing struct {
	wall time.Duration

	// allocMB is the bytes allocated during the run (MemStats.TotalAlloc);
	// heapMB is the live-plus-uncollected heap right after it, an upper
	// estimate of the peak working set.
	allocMB, heapMB float64
}

// bestOf runs fn reps times, each after a GC so garbage from earlier
// work is not billed to it, and returns the fastest repetition. A
// single run of a millisecond-scale table is noise-dominated and would
// flake the CI comparison; the best of a few shaves scheduler noise.
func bestOf(reps int, fn func() error) (timing, error) {
	var best timing
	for rep := 0; rep < reps; rep++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		if err := fn(); err != nil {
			return best, err
		}
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		if rep == 0 || d < best.wall {
			best = timing{
				wall:    d,
				allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
				heapMB:  float64(m1.HeapAlloc) / (1 << 20),
			}
		}
	}
	return best, nil
}

// LoadSnapshot reads a snapshot written by `hlsbench -<mode>`. Every
// failure names the path and the command that writes a good snapshot:
// this error is most often read in a CI log by someone who did not
// write the file.
func LoadSnapshot(path, mode string) (*Snapshot, error) {
	fail := func(err error) (*Snapshot, error) {
		return nil, fmt.Errorf("experiments: snapshot %s: %w; run `hlsbench -%s -out %s` to write a fresh one", path, err, mode, path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fail(err)
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fail(fmt.Errorf("not valid JSON: %w", err))
	}
	if s.SchemaVersion != schemaVersion {
		return fail(fmt.Errorf("unsupported schema_version %d (this build reads version %d)", s.SchemaVersion, schemaVersion))
	}
	if s.Mode != mode {
		return fail(fmt.Errorf("written by `hlsbench -%s`, not `hlsbench -%s`", s.Mode, mode))
	}
	return &s, nil
}

// Delta pairs a fresh metric with the baseline's value of the same
// name.
type Delta struct {
	Metric         // the fresh measurement
	Base   float64 // the baseline's value
}

// Factor returns fresh/baseline (>1 = grew), or 0 when the baseline
// value is zero.
func (d Delta) Factor() float64 {
	if d.Base == 0 {
		return 0
	}
	return d.Value / d.Base
}

// Deltas pairs every metric the two snapshots share, in the fresh
// snapshot's order. A metric on only one side is skipped, so a capped
// scale ladder still compares against the full one.
func Deltas(base, fresh *Snapshot) []Delta {
	old := make(map[string]float64, len(base.Metrics))
	for _, m := range base.Metrics {
		old[m.Name] = m.Value
	}
	var ds []Delta
	for _, m := range fresh.Metrics {
		if v, ok := old[m.Name]; ok {
			ds = append(ds, Delta{Metric: m, Base: v})
		}
	}
	return ds
}

// Regression is a delta that failed the comparison.
type Regression struct {
	Delta
	Limit float64 // the largest value that would have passed
}

func (r Regression) String() string {
	if r.Exact {
		return fmt.Sprintf("%s: %g %s, baseline %g (must match exactly)", r.Name, r.Value, r.Unit, r.Base)
	}
	return fmt.Sprintf("%s: %.2f ms, baseline %.2f ms (limit %.2f ms)", r.Name, r.Value, r.Base, r.Limit)
}

// CompareSnapshots checks a fresh snapshot against a committed
// baseline, metric by metric over Deltas. An exact metric must equal
// its baseline. A wall time (unit ms, better lower) may be at most
// tolerance times its baseline: the deliberately loose factor (CI uses
// 3) absorbs shared-runner noise while still catching
// order-of-magnitude regressions such as an accidental O(n²), a lost
// cache or a sweep gone sequential. Every other metric is shown in the
// delta table and never fails. A comparison that pairs no metric, or
// pairs snapshots measured at different GOMAXPROCS, is an error, not a
// pass: single-core and multicore wall times never compare.
func CompareSnapshots(base, fresh *Snapshot, tolerance float64) ([]Regression, error) {
	if base.Env.GOMAXPROCS != fresh.Env.GOMAXPROCS {
		return nil, fmt.Errorf("experiments: the %s baseline was measured at GOMAXPROCS %d, the fresh snapshot at %d; rerun with GOMAXPROCS=%d",
			base.Mode, base.Env.GOMAXPROCS, fresh.Env.GOMAXPROCS, base.Env.GOMAXPROCS)
	}
	ds := Deltas(base, fresh)
	if len(ds) == 0 {
		return nil, fmt.Errorf("experiments: the %s baseline shares no metric with the fresh %s snapshot", base.Mode, fresh.Mode)
	}
	var regs []Regression
	for _, d := range ds {
		switch {
		case d.Exact && d.Value != d.Base:
			regs = append(regs, Regression{Delta: d, Limit: d.Base})
		case d.Unit == "ms" && d.Better == "lower" && d.Base > 0 && d.Value > d.Base*tolerance:
			regs = append(regs, Regression{Delta: d, Limit: d.Base * tolerance})
		}
	}
	return regs, nil
}
