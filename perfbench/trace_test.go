package main

import (
	"math"
	"testing"
	"time"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := int64(time.Millisecond)
	tr := &tracer{spans: []span{
		{Name: "op", Parent: -1, Start: 0, End: 100 * ms},
		{Name: "a", Parent: 0, Start: 10 * ms, End: 30 * ms},
		{Name: "b", Parent: 0, Start: 20 * ms, End: 50 * ms}, // overlaps a
		{Name: "a", Parent: 0, Start: 60 * ms, End: 70 * ms},
		{Name: "c", Parent: 3, Start: 62 * ms, End: 66 * ms},  // inside the second a
		{Name: "b", Parent: 0, Start: 95 * ms, End: 120 * ms}, // runs past its parent
	}}
	want := map[string]float64{"op": 100 - 40 - 10 - 5, "a": 20 + 10 - 4, "b": 30 + 25, "c": 4}
	one := func(int) float64 { return 1 }
	got := tr.selfMs(one)
	for name, w := range want {
		if math.Abs(got[name]-w) > 1e-9 {
			t.Errorf("self time of %s = %v ms, want %v", name, got[name], w)
		}
	}
	if d := tr.durationsMs("a", one); len(d) != 2 || d[0] != 20 || d[1] != 10 {
		t.Errorf("durations of a = %v, want [20 10]", d)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", 0, -1)
	tr.end(id)
	tr.endAs(id, "y")
	called := false
	if err := tr.do("z", 0, id, func() error { called = true; return nil }); err != nil || !called {
		t.Errorf("do on a nil tracer: err %v, called %t", err, called)
	}
}
