package experiments

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/benchmarks"
	"repro/internal/library"
)

func TestFuNotation(t *testing.T) {
	cases := []struct {
		in   map[string]int
		want string
	}{
		{map[string]int{"*": 2, "+": 3}, "**,+++"},
		{map[string]int{"+": 1}, "+"},
		{map[string]int{"<": 1, "*": 1, "&": 2}, "*,<,&&"},
		{map[string]int{}, ""},
		{map[string]int{"loop:x": 1, "+": 1}, "+,loop:x"},
	}
	for _, c := range cases {
		if got := fuNotation(c.in); got != c.want {
			t.Errorf("fuNotation(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTable1(t *testing.T) {
	tbl, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	// 6 examples: #1 has 2 constraints, #2 has 1, #3-#6 have 3 each.
	if tbl.Len() != 2+1+3+3+3+3 {
		t.Errorf("rows = %d", tbl.Len())
	}
	out := tbl.String()
	// The EWF trend rows must show the published multiplier counts.
	if !strings.Contains(out, "***,") {
		t.Errorf("EWF T=17 row missing 3 multipliers:\n%s", out)
	}
	for _, want := range []string{"#1 facet", "#6 ewf", "T=21", "Feat"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
}

func TestTable2(t *testing.T) {
	tbl, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 12 { // 6 examples x 2 styles
		t.Errorf("rows = %d, want 12", tbl.Len())
	}
	out := tbl.String()
	for _, want := range []string{"Cost", "REG", "MUXin", "#1 facet"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing %q", want)
		}
	}
}

func TestStyleOverheadShape(t *testing.T) {
	tbl, err := StyleOverhead()
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	// §6 shape: overheads are bounded; parse each percentage and check
	// the band (style 2 can occasionally tie but must not be wildly off).
	for _, line := range strings.Split(out, "\n") {
		idx := strings.LastIndex(line, "%")
		if idx < 0 || !strings.Contains(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		pct := strings.TrimSuffix(fields[len(fields)-1], "%")
		v, err := strconv.ParseFloat(strings.TrimPrefix(pct, "+"), 64)
		if err != nil {
			t.Fatalf("bad percentage in %q", line)
		}
		if v < -5 || v > 60 {
			t.Errorf("style overhead %v%% outside plausible band: %s", v, line)
		}
	}
}

func TestCompare(t *testing.T) {
	tbl, err := Compare()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() == 0 {
		t.Fatal("no comparison rows")
	}
	out := tbl.String()
	if !strings.Contains(out, "FDS") {
		t.Errorf("comparison table malformed:\n%s", out)
	}
}

func TestNaiveAllocate(t *testing.T) {
	ex := benchmarks.Diffeq()
	s, err := baseline.ForceDirected(ex.Graph, 4)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := NaiveAllocate(s, library.NCRLike())
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.Validate(ex.Graph); err != nil {
		t.Fatal(err)
	}
	c := dp.Cost()
	if c.Total <= 0 || c.NumALUs < 5 {
		t.Errorf("naive cost = %+v", c)
	}
}

func TestRuntime(t *testing.T) {
	tbl, err := Runtime()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 6 {
		t.Errorf("rows = %d", tbl.Len())
	}
}

func TestFigures(t *testing.T) {
	f1 := Figure1()
	for _, want := range []string{"Oip", "Oin", "V = x + n·y"} {
		if !strings.Contains(f1, want) {
			t.Errorf("Figure 1 missing %q:\n%s", want, f1)
		}
	}
	f2, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"MF = PF", "legend", "r*"} {
		if !strings.Contains(f2, want) {
			t.Errorf("Figure 2 missing %q:\n%s", want, f2)
		}
	}
}

func TestAblations(t *testing.T) {
	if tbl, err := AblationLiapunov(); err != nil || tbl.Len() == 0 {
		t.Errorf("AblationLiapunov: %v", err)
	}
	if tbl, err := AblationWeights(); err != nil || tbl.Len() != 6 {
		t.Errorf("AblationWeights: %v", err)
	}
	tbl, err := AblationRedundantFrame()
	if err != nil || tbl.Len() == 0 {
		t.Fatalf("AblationRedundantFrame: %v", err)
	}
}

func TestPhases(t *testing.T) {
	tbl, err := Phases()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 5 {
		t.Errorf("rows = %d, want 5 (diffeq skipped: pipelined)", tbl.Len())
	}
	out := tbl.String()
	if !strings.Contains(out, "MFS→alloc") {
		t.Errorf("table malformed:\n%s", out)
	}
}

func TestInterconnectTable(t *testing.T) {
	tbl, err := Interconnect()
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 6 {
		t.Errorf("rows = %d, want 6", tbl.Len())
	}
}
