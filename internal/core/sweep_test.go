package core

import (
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/guard"
	"repro/internal/op"
	"repro/internal/rtl"
)

func TestSweepDiffeq(t *testing.T) {
	ex := benchmarks.Diffeq()
	points, err := Sweep(ex.Graph, Config{}, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Range starts at the critical path (4), so 5 points.
	if len(points) != 5 {
		t.Fatalf("points = %d, want 5", len(points))
	}
	if points[0].CS != 4 {
		t.Errorf("first point cs = %d, want critical path 4", points[0].CS)
	}
	// The fastest point is always on the frontier.
	if !points[0].Pareto {
		t.Error("fastest point not Pareto")
	}
	// At least one point on the frontier must be cheaper than the
	// fastest (relaxing time buys hardware on this example).
	cheaper := false
	for _, p := range points[1:] {
		if p.Pareto && p.Cost.Total < points[0].Cost.Total {
			cheaper = true
		}
	}
	if !cheaper {
		t.Errorf("no cheaper frontier point found: %+v", points)
	}
	// Pareto correctness: no frontier point dominated by any other.
	for i, p := range points {
		for j, q := range points {
			if i == j || !p.Pareto {
				continue
			}
			if q.CS <= p.CS && q.Cost.Total < p.Cost.Total {
				t.Errorf("frontier point cs=%d dominated by cs=%d", p.CS, q.CS)
			}
		}
	}
}

func TestSweepErrors(t *testing.T) {
	ex := benchmarks.Facet()
	if _, err := Sweep(ex.Graph, Config{}, 0, 5); err == nil {
		t.Error("bad low bound accepted")
	}
	if _, err := Sweep(ex.Graph, Config{}, 5, 4); err == nil {
		t.Error("inverted range accepted")
	}
}

// TestSweepParallelIdentical is the sweep determinism guard: the same
// range computed sequentially and at several worker counts must produce
// byte-identical points and Pareto marks.
func TestSweepParallelIdentical(t *testing.T) {
	ex := benchmarks.Diffeq()
	want, err := Sweep(ex.Graph, Config{Parallelism: 1}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, 4, 16} {
		got, err := Sweep(ex.Graph, Config{Parallelism: workers}, 1, 10)
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: points differ\ngot  %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestSweepGraphs checks the multi-design entry point against
// independent oracles: every point's cost and ALU summary equal a direct
// Synthesize at that cs, each row starts at its graph's critical path,
// and the Pareto marks equal the quadratic all-pairs marker's.
func TestSweepGraphs(t *testing.T) {
	exs := []*benchmarks.Example{benchmarks.Facet(), benchmarks.Diffeq(), benchmarks.ARLattice()}
	gs := make([]*dfg.Graph, len(exs))
	for i, ex := range exs {
		gs[i] = ex.Graph
	}
	const lo, hi = 1, 9
	multi, err := SweepGraphs(gs, Config{}, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if len(multi) != len(gs) {
		t.Fatalf("len = %d, want %d", len(multi), len(gs))
	}
	for i, g := range gs {
		row := multi[i]
		cp := g.CriticalPathCycles()
		if len(row) != hi-cp+1 {
			t.Fatalf("%s: %d points, want cs %d..%d", g.Name, len(row), cp, hi)
		}
		want := make([]SweepPoint, len(row))
		for k := range row {
			cs := cp + k
			d, err := Synthesize(g, Config{CS: cs})
			if err != nil {
				t.Fatalf("%s at cs=%d: %v", g.Name, cs, err)
			}
			want[k] = SweepPoint{CS: cs, Cost: d.Cost, ALUs: d.Datapath.ALUSummary()}
		}
		brutePareto(want)
		if !reflect.DeepEqual(row, want) {
			t.Errorf("%s: SweepGraphs row differs from direct synthesis\ngot  %+v\nwant %+v", g.Name, row, want)
		}
	}
	if _, err := SweepGraphs(gs, Config{}, 0, 9); err == nil {
		t.Error("bad low bound accepted")
	}
	if _, err := SweepGraphs([]*dfg.Graph{nil}, Config{}, 1, 4); err == nil {
		t.Error("nil graph accepted")
	}
}

// brute is the original quadratic all-pairs Pareto marker, kept as the
// reference oracle for the sort-then-scan implementation.
func brutePareto(points []SweepPoint) {
	for i := range points {
		dominated := false
		for j := range points {
			if i == j {
				continue
			}
			betterOrEqual := points[j].CS <= points[i].CS && points[j].Cost.Total <= points[i].Cost.Total
			strictlyBetter := points[j].CS < points[i].CS || points[j].Cost.Total < points[i].Cost.Total
			if betterOrEqual && strictlyBetter {
				dominated = true
				break
			}
		}
		points[i].Pareto = !dominated
	}
}

// TestMarkParetoMatchesBruteForce drives the O(n log n) marker against
// the quadratic oracle on random point sets, including duplicate CS
// values and duplicate (CS, Total) pairs (neither occurs in a plain
// sweep, but markPareto must not silently depend on that).
func TestMarkParetoMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(40)
		fast := make([]SweepPoint, n)
		for i := range fast {
			fast[i] = SweepPoint{
				CS:   1 + r.Intn(8),
				Cost: rtl.Cost{Total: float64(100 * (1 + r.Intn(12)))},
			}
		}
		slow := append([]SweepPoint(nil), fast...)
		markPareto(fast)
		brutePareto(slow)
		for i := range fast {
			if fast[i].Pareto != slow[i].Pareto {
				t.Fatalf("trial %d: point %d (cs=%d total=%.0f): fast=%v brute=%v\nall: %+v",
					trial, i, fast[i].CS, fast[i].Cost.Total, fast[i].Pareto, slow[i].Pareto, fast)
			}
		}
	}
}

func TestSweepRangeClampedToCriticalPath(t *testing.T) {
	ex := benchmarks.Facet() // critical path 4
	points, err := Sweep(ex.Graph, Config{}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].CS != 4 {
		t.Errorf("points = %+v, want single cs=4", points)
	}
}

// TestSweepBelowCriticalPath pins the clamp fix: a well-formed range
// lying entirely below the graph's critical path used to come back as
// zero points with a nil error (pool.MapCtx saw n <= 0); it is now a
// typed *guard.RangeError naming the critical path.
func TestSweepBelowCriticalPath(t *testing.T) {
	ex := benchmarks.Facet() // critical path 4
	points, err := Sweep(ex.Graph, Config{}, 1, 3)
	if points != nil {
		t.Errorf("points = %+v, want none", points)
	}
	var re *guard.RangeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *guard.RangeError", err)
	}
	if re.Lo != 1 || re.Hi != 3 || re.CriticalPath != 4 || re.Graph != ex.Graph.Name {
		t.Errorf("RangeError = %+v, want {Lo:1 Hi:3 CriticalPath:4 Graph:%q}", re, ex.Graph.Name)
	}
	if got := err.Error(); !strings.Contains(got, "critical path") || !strings.Contains(got, "4") {
		t.Errorf("error %q does not name the critical path", got)
	}
}

// TestSweepGraphsBelowCriticalPath applies the same contract to the
// per-graph clamp of the multi-design entry point: one infeasible graph
// fails the request with a typed error naming that graph, instead of
// returning a silently empty row (counts[gi] == 0).
func TestSweepGraphsBelowCriticalPath(t *testing.T) {
	shallow := dfg.New("shallow") // critical path 1: inside [1, 3]
	if err := shallow.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if err := shallow.AddInput("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := shallow.AddOp("s", op.Add, "a", "b"); err != nil {
		t.Fatal(err)
	}
	deep := benchmarks.Facet().Graph // critical path 4: outside [1, 3]

	out, err := SweepGraphs([]*dfg.Graph{shallow, deep}, Config{}, 1, 3)
	if out != nil {
		t.Errorf("rows = %+v, want none", out)
	}
	var re *guard.RangeError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want *guard.RangeError", err)
	}
	if re.Graph != deep.Name || re.CriticalPath != 4 || re.Lo != 1 || re.Hi != 3 {
		t.Errorf("RangeError = %+v, want {Lo:1 Hi:3 CriticalPath:4 Graph:%q}", re, deep.Name)
	}

	// The same graphs under a feasible range still sweep fine — the fix
	// only rejects ranges with no feasible point for some graph.
	rows, err := SweepGraphs([]*dfg.Graph{shallow, deep}, Config{}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || len(rows[0]) != 4 || len(rows[1]) != 1 {
		t.Errorf("feasible sweep rows = %d/%d points, want 4/1", len(rows[0]), len(rows[1]))
	}
}
