package sim

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/mfs"
)

func TestTraceVCDStructure(t *testing.T) {
	ex := benchmarks.Facet()
	s, err := mfs.Schedule(ex.Graph, mfs.Options{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	in := RandomInputs(ex.Graph, 1)
	if err := TraceVCD(s, in, &b); err != nil {
		t.Fatal(err)
	}
	dump := b.String()
	for _, want := range []string{
		"$timescale", "$scope module facet", "$enddefinitions", "#0", "#4",
	} {
		if !strings.Contains(dump, want) {
			t.Errorf("VCD missing %q", want)
		}
	}
	// Every signal declared exactly once.
	for _, n := range ex.Graph.Nodes() {
		if strings.Count(dump, " "+n.Name+" $end") != 1 {
			t.Errorf("signal %q not declared exactly once", n.Name)
		}
	}
}

func TestTraceVCDValuesMatchSimulation(t *testing.T) {
	ex := benchmarks.Diffeq()
	s, err := mfs.Schedule(ex.Graph, mfs.Options{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := RandomInputs(ex.Graph, 2)
	want, err := Run(s, in)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := TraceVCD(s, in, &b); err != nil {
		t.Fatal(err)
	}
	got := parseVCD(t, b.String())
	for _, n := range ex.Graph.Nodes() {
		if got[n.Name] != uint64(want[n.Name]) {
			t.Errorf("%q = %d in VCD, simulation says %d", n.Name, got[n.Name], want[n.Name])
		}
	}
}

// parseVCD extracts the final binary value of every named signal.
func parseVCD(t *testing.T, dump string) map[string]uint64 {
	t.Helper()
	idName := make(map[string]string)
	final := make(map[string]uint64)
	for _, line := range strings.Split(dump, "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) >= 5 && fields[0] == "$var":
			idName[fields[3]] = fields[4]
		case len(fields) == 2 && strings.HasPrefix(fields[0], "b"):
			v, err := strconv.ParseUint(fields[0][1:], 2, 64)
			if err != nil {
				t.Fatalf("bad VCD value %q", line)
			}
			name, ok := idName[fields[1]]
			if !ok {
				t.Fatalf("undeclared VCD id %q", fields[1])
			}
			final[name] = v
		}
	}
	return final
}

func TestTraceVCDOrderingByFinishStep(t *testing.T) {
	// 2-cycle ops appear at their finish step, not their start step.
	ex := benchmarks.ARLattice()
	s, err := mfs.Schedule(ex.Graph, mfs.Options{CS: 8})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := TraceVCD(s, RandomInputs(ex.Graph, 3), &b); err != nil {
		t.Fatal(err)
	}
	dump := b.String()
	// m1 starts at step 1 but finishes at 2: its change must come after
	// the "#2" marker, never in the "#1" block.
	i1 := strings.Index(dump, "#1\n")
	i2 := strings.Index(dump, "#2\n")
	if i1 < 0 || i2 < 0 {
		t.Skip("no step markers")
	}
	block1 := dump[i1:i2]
	m1, _ := ex.Graph.Lookup("m1")
	_ = m1
	// Identify m1's id from the declarations.
	id := ""
	for _, line := range strings.Split(dump, "\n") {
		f := strings.Fields(line)
		if len(f) >= 5 && f[0] == "$var" && f[4] == "m1" {
			id = f[3]
		}
	}
	if id == "" {
		t.Fatal("m1 not declared")
	}
	if strings.Contains(block1, " "+id+"\n") {
		t.Error("2-cycle m1 changed during step 1")
	}
}

func TestVCDIDUniqueness(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 5000; i++ {
		id := vcdID(i)
		if seen[id] {
			t.Fatalf("duplicate id %q at %d", id, i)
		}
		seen[id] = true
	}
}

func TestTraceVCDPropagatesSimErrors(t *testing.T) {
	ex := benchmarks.Facet()
	s, err := mfs.Schedule(ex.Graph, mfs.Options{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := TraceVCD(s, map[string]int64{}, &b); err == nil {
		t.Error("missing inputs accepted")
	}
}

var errDiskFull = errors.New("disk full")

// failWriter accepts its first ok writes and fails every later one.
type failWriter struct{ ok, calls int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.calls++
	if f.calls > f.ok {
		return 0, errDiskFull
	}
	return len(p), nil
}

func TestTraceVCDReturnsWriteError(t *testing.T) {
	ex := benchmarks.Diffeq()
	s, err := mfs.Schedule(ex.Graph, mfs.Options{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	in := RandomInputs(ex.Graph, 1)
	all := &failWriter{ok: 1 << 30}
	if err := TraceVCD(s, in, all); err != nil {
		t.Fatal(err)
	}
	for ok := 0; ok < all.calls; ok++ {
		w := &failWriter{ok: ok}
		if err := TraceVCD(s, in, w); !errors.Is(err, errDiskFull) {
			t.Fatalf("write %d fails: TraceVCD returned %v", ok+1, err)
		}
		if w.calls != ok+1 {
			t.Fatalf("write %d fails: %d more writes followed it", ok+1, w.calls-ok-1)
		}
	}
}
