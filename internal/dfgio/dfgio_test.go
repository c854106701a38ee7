package dfgio

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/mfs"
	"repro/internal/op"
	"repro/internal/sim"
)

func TestGraphRoundTripAllBenchmarks(t *testing.T) {
	for _, ex := range benchmarks.All() {
		data, err := EncodeGraph(ex.Graph)
		if err != nil {
			t.Fatalf("%s: encode: %v", ex.Name, err)
		}
		g2, err := DecodeGraph(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", ex.Name, err)
		}
		if g2.Len() != ex.Graph.Len() || g2.Name != ex.Graph.Name {
			t.Fatalf("%s: shape changed: %d vs %d nodes", ex.Name, g2.Len(), ex.Graph.Len())
		}
		// Semantics preserved: identical evaluation.
		in := sim.RandomInputs(ex.Graph, 3)
		want, err := ex.Graph.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		got, err := g2.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range ex.Graph.Nodes() {
			if got[n.Name] != want[n.Name] {
				t.Fatalf("%s: %q = %d, want %d", ex.Name, n.Name, got[n.Name], want[n.Name])
			}
		}
		// Annotations preserved.
		for _, n := range ex.Graph.Nodes() {
			n2, ok := g2.Lookup(n.Name)
			if !ok {
				t.Fatalf("%s: node %q lost", ex.Name, n.Name)
			}
			if n2.Cycles != n.Cycles || n2.Op != n.Op {
				t.Errorf("%s: node %q annotations changed", ex.Name, n.Name)
			}
		}
	}
}

func TestGraphRoundTripAnnotations(t *testing.T) {
	g := dfg.New("annot")
	g.AddInput("a")
	x, _ := g.AddOp("x", op.Mul, "a", "a")
	g.SetCycles(x, 2)
	g.SetDelayNs(x, 77)
	g.Tag(x, dfg.CondTag{Cond: 2, Branch: 1})
	y, _ := g.AddOp("y", op.Add, "a", "a")
	g.Tag(y, dfg.CondTag{Cond: 2, Branch: 0})

	data, err := EncodeGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := DecodeGraph(data)
	if err != nil {
		t.Fatal(err)
	}
	x2, _ := g2.Lookup("x")
	if x2.Cycles != 2 || x2.DelayNs != 77 || len(x2.Excl) != 1 || x2.Excl[0] != (dfg.CondTag{Cond: 2, Branch: 1}) {
		t.Errorf("annotations lost: %+v", x2)
	}
	y2, _ := g2.Lookup("y")
	if !g2.MutuallyExclusive(x2.ID, y2.ID) {
		t.Error("exclusivity lost")
	}
}

func TestLoopRoundTrip(t *testing.T) {
	body := dfg.New("body")
	body.AddInput("p")
	body.AddOp("q", op.Add, "p", "p")

	g := dfg.New("outer")
	g.AddInput("x")
	id, err := g.AddLoop("l", body, "q", map[string]string{"p": "x"})
	if err != nil {
		t.Fatal(err)
	}
	g.SetCycles(id, 3)
	g.AddOp("out", op.Mul, "l", "x")

	data, err := EncodeGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := DecodeGraph(data)
	if err != nil {
		t.Fatal(err)
	}
	l2, ok := g2.Lookup("l")
	if !ok || !l2.IsLoop() || l2.Cycles != 3 || l2.SubOut != "q" {
		t.Fatalf("loop lost: %+v", l2)
	}
	vals, err := g2.Eval(map[string]int64{"x": 5})
	if err != nil {
		t.Fatal(err)
	}
	if vals["out"] != 50 {
		t.Errorf("out = %d", vals["out"])
	}
}

func TestDecodeRejectsBadData(t *testing.T) {
	cases := []string{
		`{`,
		`{"name":"g","inputs":["a"],"nodes":[{"name":"x","op":"??","args":["a","a"]}]}`,
		`{"name":"g","inputs":["a"],"nodes":[{"name":"x","op":"+","args":["a"]}]}`,
		`{"name":"g","inputs":["a"],"nodes":[{"name":"x","op":"+","args":["a","zz"]}]}`,
		`{"name":"g","inputs":["a"],"nodes":[{"name":"x","op":"+","args":["a","a"],"cycles":-1}]}`,
	}
	for i, c := range cases {
		if _, err := DecodeGraph([]byte(c)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestEncodeRejectsInvalidGraph(t *testing.T) {
	g := dfg.New("bad")
	g.AddInput("a")
	id, _ := g.AddOp("x", op.Add, "a", "a")
	g.Node(id).Cycles = 0 // corrupt
	if _, err := EncodeGraph(g); err == nil {
		t.Error("invalid graph encoded")
	}
}

func TestScheduleRoundTrip(t *testing.T) {
	ex := benchmarks.Bandpass()
	s, err := mfs.Schedule(ex.Graph, mfs.Options{
		CS:             9,
		PipelinedTypes: map[string]bool{"*": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"pipelined_types"`) {
		t.Error("pipelined types not encoded")
	}
	s2, err := DecodeSchedule(data)
	if err != nil {
		t.Fatal(err)
	}
	if s2.CS != s.CS || s2.Latency != s.Latency || !s2.PipelinedTypes["*"] {
		t.Errorf("schedule metadata lost: %+v", s2)
	}
	// Same placements by node name.
	for _, n := range s.Graph.Nodes() {
		n2, _ := s2.Graph.Lookup(n.Name)
		p2, _ := s2.At(n2.ID)
		if p, _ := s.At(n.ID); p2 != p {
			t.Errorf("placement of %q changed", n.Name)
		}
	}
	// The decoded schedule still simulates correctly.
	if err := sim.CrossCheck(s2, nil, sim.RandomInputs(s2.Graph, 9)); err != nil {
		t.Error(err)
	}
}

// TestEncodeScheduleIsByteStable encodes one schedule with four
// pipelined types 50 times: every encoding is the same bytes.
func TestEncodeScheduleIsByteStable(t *testing.T) {
	ex := benchmarks.Diffeq()
	s, err := mfs.Schedule(ex.Graph, mfs.Options{
		CS:             6,
		PipelinedTypes: map[string]bool{"*": true, "+": true, "-": true, "<": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := EncodeSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 50; i++ {
		data, err := EncodeSchedule(s)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, first) {
			t.Fatalf("encoding %d differs from the first:\n%s\nvs\n%s", i, data, first)
		}
	}
}

func TestDecodeScheduleRejectsIllegal(t *testing.T) {
	ex := benchmarks.Facet()
	s, err := mfs.Schedule(ex.Graph, mfs.Options{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeSchedule(s)
	if err != nil {
		t.Fatal(err)
	}
	// Tamper: move every op to step 1 (dependency violations).
	tampered := strings.ReplaceAll(string(data), `"step": 2`, `"step": 1`)
	if tampered == string(data) {
		t.Skip("no step-2 placements to tamper with")
	}
	if _, err := DecodeSchedule([]byte(tampered)); err == nil {
		t.Error("tampered schedule accepted")
	}
	if _, err := DecodeSchedule([]byte(`{"cs":3}`)); err == nil {
		t.Error("schedule without graph accepted")
	}
}

func TestEncodeScheduleRejectsIllegal(t *testing.T) {
	ex := benchmarks.Facet()
	s, err := mfs.Schedule(ex.Graph, mfs.Options{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	p, _ := s.At(0)
	p.Step = 99
	s.Place(0, p)
	if _, err := EncodeSchedule(s); err == nil {
		t.Error("illegal schedule encoded")
	}
}
