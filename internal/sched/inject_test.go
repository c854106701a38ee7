package sched_test

// Failure-injection meta-tests of the verifier: take legal schedules,
// apply targeted corruptions, and require sched.Verify to reject every
// one. The verifier gates every scheduler and the serialization decoder,
// so its own blind spots would silently undermine the whole test suite.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/benchmarks"
	"repro/internal/dfg"
	"repro/internal/mfs"
	"repro/internal/sched"
)

// legalSchedules builds a pool of verified schedules across features.
func legalSchedules(t *testing.T) []*sched.Schedule {
	t.Helper()
	var out []*sched.Schedule
	for _, ex := range benchmarks.All() {
		cs := ex.TimeConstraints[0]
		opt := mfs.Options{CS: cs, ClockNs: ex.ClockNs}
		if ex.Latency != nil {
			opt.Latency = ex.Latency(cs)
		}
		s, err := mfs.Schedule(ex.Graph, opt)
		if err != nil {
			t.Fatalf("%s: %v", ex.Name, err)
		}
		out = append(out, s)
	}
	return out
}

func clone(s *sched.Schedule) *sched.Schedule {
	c := sched.NewSchedule(s.Graph, s.CS)
	c.ClockNs = s.ClockNs
	c.Latency = s.Latency
	for typ, on := range s.PipelinedTypes {
		c.PipelinedTypes[typ] = on
	}
	for _, n := range s.Graph.Nodes() {
		if p, ok := s.At(n.ID); ok {
			c.Place(n.ID, p)
		}
	}
	return c
}

// anyPlaced picks a placed node of s at random.
func anyPlaced(r *rand.Rand, s *sched.Schedule) (dfg.NodeID, sched.Placement, bool) {
	if s.Graph.Len() == 0 {
		return 0, sched.Placement{}, false
	}
	id := s.Graph.Nodes()[r.Intn(s.Graph.Len())].ID
	p, ok := s.At(id)
	return id, p, ok
}

// mutations are corruption strategies; each returns false when it could
// not apply to the given schedule (e.g. no eligible node).
var mutations = []struct {
	name  string
	apply func(r *rand.Rand, s *sched.Schedule) bool
}{
	{"drop-placement", func(r *rand.Rand, s *sched.Schedule) bool {
		id, _, ok := anyPlaced(r, s)
		if ok {
			s.Unplace(id)
		}
		return ok
	}},
	{"before-predecessor", func(r *rand.Rand, s *sched.Schedule) bool {
		for _, n := range s.Graph.Nodes() {
			if len(n.Preds()) == 0 {
				continue
			}
			pred := s.Graph.Node(n.Preds()[0])
			pp, _ := s.At(pred.ID)
			p, _ := s.At(n.ID)
			target := pp.Step + pred.Cycles - 2 // strictly before pred completes, minus chaining room
			if s.ClockNs > 0 {
				target = pp.Step - 1
			}
			if target < 1 {
				continue
			}
			p.Step = target
			s.Place(n.ID, p)
			return true
		}
		return false
	}},
	{"collide-resources", func(r *rand.Rand, s *sched.Schedule) bool {
		// Move one op onto another op's exact (type,index,step) when they
		// are not mutually exclusive.
		nodes := s.Graph.Nodes()
		for i := 0; i < len(nodes); i++ {
			for j := 0; j < len(nodes); j++ {
				if i == j {
					continue
				}
				a, b := nodes[i], nodes[j]
				if s.Graph.MutuallyExclusive(a.ID, b.ID) {
					continue
				}
				pa, _ := s.At(a.ID)
				pb, _ := s.At(b.ID)
				if pa.Type != pb.Type || a.Cycles != b.Cycles {
					continue
				}
				// Only a true footprint overlap is illegal; same start
				// guarantees it even on pipelined units.
				if pa.Step != pb.Step {
					continue
				}
				pb.Index = pa.Index
				s.Place(b.ID, pb)
				return true
			}
		}
		return false
	}},
	{"step-out-of-range", func(r *rand.Rand, s *sched.Schedule) bool {
		id, p, ok := anyPlaced(r, s)
		if ok {
			p.Step = s.CS + 5
			s.Place(id, p)
		}
		return ok
	}},
	{"zero-index", func(r *rand.Rand, s *sched.Schedule) bool {
		id, p, ok := anyPlaced(r, s)
		if ok {
			p.Index = 0
			s.Place(id, p)
		}
		return ok
	}},
}

func TestVerifierCatchesInjectedFaults(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	pool := legalSchedules(t)
	for _, s := range pool {
		if err := s.Verify(nil); err != nil {
			t.Fatalf("pool schedule not legal: %v", err)
		}
	}
	for _, m := range mutations {
		applied := 0
		for pi, s := range pool {
			c := clone(s)
			if !m.apply(r, c) {
				continue
			}
			applied++
			if err := c.Verify(nil); err == nil {
				t.Errorf("mutation %q on schedule %d not caught", m.name, pi)
			}
		}
		if applied == 0 {
			t.Errorf("mutation %q never applied", m.name)
		}
	}
}

func TestVerifierAcceptsUnmutatedClones(t *testing.T) {
	// The clone helper itself must not break legality.
	for i, s := range legalSchedules(t) {
		if err := clone(s).Verify(nil); err != nil {
			t.Errorf("clone %d: %v", i, err)
		}
	}
	_ = fmt.Sprint()
	_ = dfg.NodeID(0)
}
