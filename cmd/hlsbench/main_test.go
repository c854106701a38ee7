package main

import (
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestTables(t *testing.T) {
	cases := map[string]string{
		"1":       "Table 1",
		"2":       "Table 2",
		"compare": "Comparison",
		"style":   "overhead",
		"runtime": "CPU time",
	}
	for arg, want := range cases {
		var out strings.Builder
		if err := run(context.Background(), []string{"-table", arg}, &out); err != nil {
			t.Fatalf("-table %s: %v", arg, err)
		}
		if !strings.Contains(out.String(), want) {
			t.Errorf("-table %s output missing %q", arg, want)
		}
	}
}

func TestAblations(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-table", "ablation"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"Liapunov function choice", "Liapunov terms", "redundant frame"} {
		if !strings.Contains(got, want) {
			t.Errorf("ablation output missing %q", want)
		}
	}
}

func TestFigureFlag(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-fig", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Figure 1") {
		t.Error("figure 1 missing")
	}
	if err := run(context.Background(), []string{"-fig", "3"}, &out); err == nil {
		t.Error("bad figure accepted")
	}
}

func TestUnknownTable(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-table", "bogus"}, &out); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestJSONBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_sweep.json")
	var out strings.Builder
	if err := run(context.Background(), []string{"-json", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"hlsbench -json", "table1/wall", "sweep/identical_results", "wrote " + path} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q in:\n%s", want, out.String())
		}
	}
	s, err := experiments.LoadSnapshot(path, "json")
	if err != nil {
		t.Fatal(err)
	}
	values := make(map[string]float64)
	tables := 0
	for _, m := range s.Metrics {
		values[m.Name] = m.Value
		if strings.HasSuffix(m.Name, "/rows") {
			tables++
		}
	}
	if tables != 10 {
		t.Errorf("tables = %d, want 10", tables)
	}
	if values["sweep/points"] < 2 || values["sweep/sequential"] <= 0 || values["sweep/parallel"] <= 0 {
		t.Errorf("implausible sweep timing: %v", values)
	}
	if values["sweep/identical_results"] != 1 {
		t.Error("parallel sweep diverged from sequential")
	}
}

// TestScaleBaseline runs only the smallest ladder rung (-maxnodes caps
// the ladder), round-trips the snapshot, and checks that a second run
// compared against the first prints the full delta table — the contract
// being that -compare shows every metric, not just regressions.
func TestScaleBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_scale.json")
	var out strings.Builder
	if err := run(context.Background(), []string{"-scale", "-maxnodes", "1000", "-out", path}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"rand1k/ns_per_node", "rand1k/alloc", "wrote " + path} {
		if !strings.Contains(got, want) {
			t.Errorf("scale output missing %q in:\n%s", want, got)
		}
	}
	if strings.Contains(got, "rand5k") {
		t.Errorf("rung past -maxnodes measured:\n%s", got)
	}
	if _, err := experiments.LoadSnapshot(path, "scale"); err != nil {
		t.Fatal(err)
	}

	out.Reset()
	err := run(context.Background(), []string{"-scale", "-maxnodes", "1000",
		"-out", filepath.Join(t.TempDir(), "fresh.json"), "-compare", path, "-tolerance", "1000"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got = out.String()
	for _, want := range []string{"delta vs " + path, "rand1k/wall", "rand1k/alloc", "rand1k/candidates", "within 1000x"} {
		if !strings.Contains(got, want) {
			t.Errorf("compare output missing %q in:\n%s", want, got)
		}
	}
}

// TestCompareAcrossModesFails pins that a baseline written by another
// mode is refused: the two snapshots share no metric, so the
// comparison would otherwise check nothing and pass.
func TestCompareAcrossModesFails(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-scale", "-maxnodes", "1000",
		"-out", filepath.Join(t.TempDir(), "fresh.json"), "-compare", "../../BENCH_vet.json"}, &out)
	if err == nil || !strings.Contains(err.Error(), "hlsbench -vet") || !strings.Contains(err.Error(), "hlsbench -scale") {
		t.Fatalf("want an error naming both modes, got %v", err)
	}
}

func TestScaleCompareMissingBaseline(t *testing.T) {
	var out strings.Builder
	err := run(context.Background(), []string{"-scale", "-maxnodes", "1000",
		"-out", filepath.Join(t.TempDir(), "fresh.json"), "-compare", "/nonexistent/BENCH_scale.json"}, &out)
	if err == nil || !strings.Contains(err.Error(), "hlsbench -scale") {
		t.Fatalf("want regenerate hint in error, got %v", err)
	}
}

func TestScaleJSONMutuallyExclusive(t *testing.T) {
	var out strings.Builder
	if err := run(context.Background(), []string{"-scale", "-json"}, &out); err == nil {
		t.Error("-scale -json accepted")
	}
	if err := run(context.Background(), []string{"-compare", "x.json"}, &out); err == nil {
		t.Error("bare -compare accepted")
	}
}
