package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// committed maps each hlsbench mode to its baseline at the repository
// root.
var committed = map[string]string{
	"json":  "../../BENCH_sweep.json",
	"scale": "../../BENCH_scale.json",
	"serve": "../../BENCH_serve.json",
	"vet":   "../../BENCH_vet.json",
}

// metric returns the named metric of s, failing the test when absent.
func metric(t *testing.T, s *Snapshot, name string) Metric {
	t.Helper()
	for _, m := range s.Metrics {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("%s snapshot has no metric %s", s.Mode, name)
	return Metric{}
}

// TestLoadBaselineDiagnostics pins the loader contract for every mode:
// the committed baseline loads under its own mode, and every failure
// names the offending path and the command that writes a good snapshot.
func TestLoadBaselineDiagnostics(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	malformed := write("malformed.json", "{not json")
	oldSchema := write("old.json", `{"schema_version": 1, "go_version": "go1.24.0", "gomaxprocs": 1}`)
	missing := filepath.Join(dir, "missing.json")

	modes := []string{"json", "scale", "serve", "vet"}
	for i, mode := range modes {
		if _, err := LoadSnapshot(committed[mode], mode); err != nil {
			t.Errorf("committed %s baseline: %v", mode, err)
		}
		other := modes[(i+1)%len(modes)]
		otherMode := write(other+".json", fmt.Sprintf(`{"schema_version": 2, "mode": %q, "env": {}, "metrics": []}`, other))
		cases := []struct {
			name, path string
			want       []string
		}{
			{"missing", missing, []string{"no such file"}},
			{"malformed", malformed, []string{"not valid JSON"}},
			{"old schema", oldSchema, []string{"schema_version 1"}},
			{"other mode", otherMode, []string{"hlsbench -" + other + "`", "hlsbench -" + mode + "`"}},
		}
		for _, c := range cases {
			_, err := LoadSnapshot(c.path, mode)
			if err == nil {
				t.Errorf("%s %s: no error", mode, c.name)
				continue
			}
			for _, want := range append(c.want, c.path, "hlsbench -"+mode+" -out "+c.path) {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s %s: error %q missing %q", mode, c.name, err, want)
				}
			}
		}
	}
}

// TestLoadPerfBaseline loads -json snapshots: a written one round-trips,
// a wrong schema_version or a missing file is refused, and the committed
// BENCH_sweep.json keeps the values it recorded.
func TestLoadPerfBaseline(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	data, err := json.Marshal(newSnapshot("json", []Metric{
		info("table1/rows", 3, "rows", ""),
		{Name: "table1/wall", Value: 1.5, Unit: "ms", Better: "lower"},
		verdict("sweep/identical_results", true),
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(good, data, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := LoadSnapshot(good, "json")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Metrics) != 3 || metric(t, p, "table1/wall").Value != 1.5 || metric(t, p, "sweep/identical_results").Value != 1 {
		t.Errorf("loaded %+v", p)
	}

	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"schema_version":99,"mode":"json"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(bad, "json"); err == nil {
		t.Error("want schema-version error")
	}
	if _, err := LoadSnapshot(filepath.Join(dir, "missing.json"), "json"); err == nil {
		t.Error("want missing-file error")
	}

	// The committed baseline at the repository root must stay loadable.
	c, err := LoadSnapshot(committed["json"], "json")
	if err != nil {
		t.Fatalf("committed BENCH_sweep.json: %v", err)
	}
	if w := metric(t, c, "table1/wall").Value; w != 1.466 || c.Env.GOMAXPROCS != 1 {
		t.Errorf("committed BENCH_sweep.json: table1 %v ms at gomaxprocs %d, want 1.466 at 1", w, c.Env.GOMAXPROCS)
	}
}

// checkParity runs the comparator over the committed baseline of one
// mode, perturbing one metric at a time, and pins the rules the
// per-mode comparators enforced before the snapshots shared a format:
// the exact metrics are exactly wantExact and fail on any change; the
// mode has wantWalls wall times, each passing at tolerance × baseline
// and failing just past it; every other metric, and any metric present
// on one side only, never fails; and a comparison that pairs no metric,
// or pairs snapshots of different GOMAXPROCS, is an error.
func checkParity(t *testing.T, mode string, wantExact []string, wantWalls int) {
	t.Helper()
	const tol = 3
	base, err := LoadSnapshot(committed[mode], mode)
	if err != nil {
		t.Fatal(err)
	}
	with := func(i int, v float64) *Snapshot {
		fresh := *base
		fresh.Metrics = append([]Metric(nil), base.Metrics...)
		fresh.Metrics[i].Value = v
		return &fresh
	}
	check := func(what string, fresh *Snapshot, want []string) {
		t.Helper()
		regs, err := CompareSnapshots(base, fresh, tol)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		var got []string
		for _, r := range regs {
			got = append(got, r.Name)
			if !strings.Contains(r.String(), r.Name) {
				t.Errorf("%s: regression %q does not name its metric", what, r)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: regressions %v, want %v", what, got, want)
		}
	}

	check("self-compare", base, nil)
	var exact []string
	walls := 0
	for i, m := range base.Metrics {
		switch {
		case m.Exact:
			exact = append(exact, m.Name)
			check(m.Name+" flipped", with(i, 1-m.Value), []string{m.Name})
		case m.Unit == "ms":
			walls++
			check(m.Name+" at tolerance", with(i, m.Value*tol), nil)
			check(m.Name+" past tolerance", with(i, m.Value*tol*1.001), []string{m.Name})
		default:
			check(m.Name+" x1000", with(i, m.Value*1000+1), nil)
			check(m.Name+" /1000", with(i, m.Value/1000), nil)
		}
	}
	sort.Strings(exact)
	sort.Strings(wantExact)
	if !reflect.DeepEqual(exact, wantExact) {
		t.Errorf("exact metrics %v, want %v", exact, wantExact)
	}
	if walls != wantWalls {
		t.Errorf("%d wall times, want %d", walls, wantWalls)
	}

	// One-sided metrics are skipped in both directions.
	fewer := *base
	fewer.Metrics = base.Metrics[1:]
	check("first metric dropped", &fewer, nil)
	more := *base
	more.Metrics = append(append([]Metric(nil), base.Metrics...), Metric{Name: "brand/new", Value: 1e9, Unit: "ms", Better: "lower"})
	check("new metric added", &more, nil)

	none := *base
	none.Metrics = []Metric{{Name: "unpaired", Value: 1, Unit: "ms", Better: "lower"}}
	if _, err := CompareSnapshots(base, &none, tol); err == nil {
		t.Error("a comparison that pairs no metric passed")
	}

	// Wall times measured at another GOMAXPROCS never compare.
	multi := *base
	multi.Env.GOMAXPROCS = base.Env.GOMAXPROCS + 1
	if _, err := CompareSnapshots(base, &multi, tol); err == nil || !strings.Contains(err.Error(), "GOMAXPROCS") {
		t.Errorf("a comparison across GOMAXPROCS %d and %d: err = %v, want a GOMAXPROCS mismatch",
			base.Env.GOMAXPROCS, multi.Env.GOMAXPROCS, err)
	}
}

func TestComparePerf(t *testing.T) {
	checkParity(t, "json", []string{"sweep/identical_results"}, 12)
}

func TestCompareScale(t *testing.T) {
	checkParity(t, "scale", []string{"rand1k/candidates", "fir2k/candidates", "rand5k/candidates", "chain5k/candidates", "rand10k/candidates"}, 5)
}

func TestCompareServe(t *testing.T) {
	checkParity(t, "serve", []string{"serve/hit_rate", "serve/byte_identical"}, 4)
}

func TestCompareVet(t *testing.T) {
	checkParity(t, "vet", []string{"vet/findings", "vet/identical_results"}, 2)
}

// TestScaleDeltas pairs a capped ladder against the full one: only the
// shared metrics pair, in the fresh snapshot's order.
func TestScaleDeltas(t *testing.T) {
	base := &Snapshot{Metrics: []Metric{
		{Name: "rand1k/wall", Value: 100}, {Name: "rand1k/alloc", Value: 50}, {Name: "rand5k/wall", Value: 500},
	}}
	fresh := &Snapshot{Metrics: []Metric{
		{Name: "rand1k/alloc", Value: 60}, {Name: "rand1k/candidates", Value: 1}, {Name: "rand1k/wall", Value: 150},
	}}
	got := Deltas(base, fresh)
	want := []Delta{{Metric: fresh.Metrics[0], Base: 50}, {Metric: fresh.Metrics[2], Base: 100}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("deltas = %+v, want %+v", got, want)
	}
	if f := got[1].Factor(); f != 1.5 {
		t.Errorf("factor = %v, want 1.5", f)
	}
	if f := (Delta{Metric: Metric{Value: 150}}).Factor(); f != 0 {
		t.Errorf("zero-baseline factor = %v, want 0", f)
	}
}
