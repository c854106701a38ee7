package experiments

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMeasureServeSmallFleet runs the full harness with a small fleet —
// the identical code path hlsbench -serve takes, scaled so the test
// stays fast. The correctness verdicts (hit rate, byte identity) must
// hold at any fleet size.
func TestMeasureServeSmallFleet(t *testing.T) {
	s, err := measureServe(context.Background(), 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.SchemaVersion != schemaVersion || s.Mode != "serve" {
		t.Errorf("header = %+v", s)
	}
	value := func(name string) float64 { return metric(t, s, name).Value }
	if value("serve/clients") != 8 || value("serve/requests") != 16 {
		t.Errorf("fleet shape %v x %v, want 8 clients / 16 requests", value("serve/clients"), value("serve/requests"))
	}
	if value("serve/designs") == 0 {
		t.Error("no designs warmed")
	}
	if v := value("serve/hit_rate"); v != 1 {
		t.Errorf("hit rate %v, want 1.0 — replayed requests must all hit", v)
	}
	if value("serve/byte_identical") != 1 {
		t.Error("replayed responses not byte-identical to the warm bodies")
	}
	if value("serve/warm") <= 0 || value("serve/replay") <= 0 || value("serve/p99") < value("serve/p50") {
		t.Errorf("implausible timings: warm %v replay %v p50 %v p99 %v",
			value("serve/warm"), value("serve/replay"), value("serve/p50"), value("serve/p99"))
	}
}

func TestMeasureServeCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := measureServe(ctx, 2, 1); err == nil {
		t.Error("cancelled measurement returned nil error")
	}
}

// TestLoadServeBaseline loads serve snapshots: a missing or outdated file
// is refused with a hint to regenerate it, a written one round-trips,
// and the committed BENCH_serve.json keeps the values it recorded.
func TestLoadServeBaseline(t *testing.T) {
	dir := t.TempDir()

	if _, err := LoadSnapshot(filepath.Join(dir, "missing.json"), "serve"); err == nil ||
		!strings.Contains(err.Error(), "hlsbench -serve") {
		t.Errorf("missing file: err = %v, want regenerate hint", err)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema_version": 99, "mode": "serve"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(bad, "serve"); err == nil ||
		!strings.Contains(err.Error(), "schema_version 99") {
		t.Errorf("bad schema: err = %v, want version complaint", err)
	}

	good := filepath.Join(dir, "good.json")
	data, err := json.Marshal(newSnapshot("serve", []Metric{
		info("serve/clients", 3, "clients", ""),
		{Name: "serve/hit_rate", Value: 1, Unit: "ratio", Better: "higher", Exact: true},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := LoadSnapshot(good, "serve")
	if err != nil {
		t.Fatal(err)
	}
	if metric(t, b, "serve/clients").Value != 3 || !metric(t, b, "serve/hit_rate").Exact {
		t.Errorf("round trip lost fields: %+v", b)
	}

	c, err := LoadSnapshot(committed["serve"], "serve")
	if err != nil {
		t.Fatal(err)
	}
	if p99 := metric(t, c, "serve/p99").Value; p99 != 255.696097 || c.Env.GOMAXPROCS != 1 {
		t.Errorf("committed BENCH_serve.json: p99 %v ms at gomaxprocs %d, want 255.696097 at 1", p99, c.Env.GOMAXPROCS)
	}
}

// TestServeDeltas pairs the serve timings in the fresh snapshot's order.
func TestServeDeltas(t *testing.T) {
	snap := func(warm, replay, p50, p99 float64) *Snapshot {
		return &Snapshot{Mode: "serve", Metrics: []Metric{
			{Name: "serve/warm", Value: warm, Unit: "ms", Better: "lower"},
			{Name: "serve/replay", Value: replay, Unit: "ms", Better: "lower"},
			{Name: "serve/p50", Value: p50, Unit: "ms", Better: "lower"},
			{Name: "serve/p99", Value: p99, Unit: "ms", Better: "lower"},
		}}
	}
	ds := Deltas(snap(10, 100, 1, 5), snap(20, 150, 2, 10))
	if len(ds) != 4 {
		t.Fatalf("%d deltas, want 4", len(ds))
	}
	if ds[0].Name != "serve/warm" || ds[0].Base != 10 || ds[0].Value != 20 {
		t.Errorf("warm delta = %+v", ds[0])
	}
	if ds[1].Factor() != 1.5 {
		t.Errorf("replay factor = %v, want 1.5", ds[1].Factor())
	}
}
