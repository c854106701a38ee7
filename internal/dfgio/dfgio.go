// Package dfgio serializes data-flow graphs and schedules so designs can
// be saved, exchanged and diffed: a JSON encoding for graphs (including
// the multicycle, delay, mutual-exclusion and folded-loop annotations)
// and for schedules. Round-tripping is exact; the decoder revalidates
// everything, so a hand-edited file cannot smuggle in an inconsistent
// design.
package dfgio

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/dfg"
	"repro/internal/op"
	"repro/internal/sched"
)

// graphJSON is the on-disk form of a Graph.
type graphJSON struct {
	Name   string     `json:"name"`
	Inputs []string   `json:"inputs"`
	Nodes  []nodeJSON `json:"nodes"`
}

type nodeJSON struct {
	Name    string        `json:"name"`
	Op      string        `json:"op,omitempty"`
	Args    []string      `json:"args"`
	Cycles  int           `json:"cycles,omitempty"`
	DelayNs float64       `json:"delay_ns,omitempty"`
	Excl    []dfg.CondTag `json:"excl,omitempty"`

	// Folded-loop fields.
	Sub    *graphJSON `json:"sub,omitempty"`
	SubOut string     `json:"sub_out,omitempty"`
	SubIns []string   `json:"sub_ins,omitempty"`
}

// EncodeGraph renders g as indented JSON.
func EncodeGraph(g *dfg.Graph) ([]byte, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("dfgio: %w", err)
	}
	return json.MarshalIndent(toJSON(g), "", "  ")
}

func toJSON(g *dfg.Graph) *graphJSON {
	out := &graphJSON{Name: g.Name, Inputs: g.Inputs()}
	for _, n := range g.Nodes() {
		nj := nodeJSON{
			Name:   n.Name,
			Args:   append([]string(nil), n.Args...),
			Cycles: n.Cycles,
			Excl:   append([]dfg.CondTag(nil), n.Excl...),
		}
		if n.IsLoop() {
			nj.Sub = toJSON(n.Sub)
			nj.SubOut = n.SubOut
			nj.SubIns = append([]string(nil), n.SubIns...)
		} else {
			nj.Op = n.Op.String()
			nj.DelayNs = n.DelayNs
		}
		out.Nodes = append(out.Nodes, nj)
	}
	return out
}

// DecodeGraph parses and validates a graph encoding.
func DecodeGraph(data []byte) (*dfg.Graph, error) {
	var gj graphJSON
	if err := json.Unmarshal(data, &gj); err != nil {
		return nil, fmt.Errorf("dfgio: %w", err)
	}
	g, err := fromJSON(&gj)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("dfgio: %w", err)
	}
	return g, nil
}

func fromJSON(gj *graphJSON) (*dfg.Graph, error) {
	g := dfg.NewSized(gj.Name, len(gj.Inputs), len(gj.Nodes))
	for _, in := range gj.Inputs {
		if err := g.AddInput(in); err != nil {
			return nil, fmt.Errorf("dfgio: %w", err)
		}
	}
	for _, nj := range gj.Nodes {
		var id dfg.NodeID
		var err error
		if nj.Sub != nil {
			sub, serr := fromJSON(nj.Sub)
			if serr != nil {
				return nil, serr
			}
			if len(nj.SubIns) != len(nj.Args) {
				return nil, fmt.Errorf("dfgio: loop %q: %d sub_ins for %d args", nj.Name, len(nj.SubIns), len(nj.Args))
			}
			binds := make(map[string]string, len(nj.SubIns))
			for i, in := range nj.SubIns {
				binds[in] = nj.Args[i]
			}
			id, err = g.AddLoop(nj.Name, sub, nj.SubOut, binds)
		} else {
			k, kerr := op.Parse(nj.Op)
			if kerr != nil {
				return nil, fmt.Errorf("dfgio: node %q: %w", nj.Name, kerr)
			}
			id, err = g.AddOp(nj.Name, k, nj.Args...)
		}
		if err != nil {
			return nil, fmt.Errorf("dfgio: %w", err)
		}
		if nj.Cycles < 0 || nj.DelayNs < 0 {
			return nil, fmt.Errorf("dfgio: node %q: negative cycles or delay", nj.Name)
		}
		if nj.Cycles > 0 {
			if err := g.SetCycles(id, nj.Cycles); err != nil {
				return nil, fmt.Errorf("dfgio: %w", err)
			}
		}
		if nj.DelayNs > 0 && nj.Sub == nil {
			if err := g.SetDelayNs(id, nj.DelayNs); err != nil {
				return nil, fmt.Errorf("dfgio: %w", err)
			}
		}
		if len(nj.Excl) > 0 {
			if err := g.Tag(id, nj.Excl...); err != nil {
				return nil, fmt.Errorf("dfgio: %w", err)
			}
		}
	}
	return g, nil
}

// scheduleJSON is the on-disk form of a Schedule; the graph travels with
// it so a schedule file is self-contained.
type scheduleJSON struct {
	Graph      *graphJSON      `json:"graph"`
	CS         int             `json:"cs"`
	ClockNs    float64         `json:"clock_ns,omitempty"`
	Latency    int             `json:"latency,omitempty"`
	Pipelined  []string        `json:"pipelined_types,omitempty"`
	Placements []placementJSON `json:"placements"`
}

type placementJSON struct {
	Node  string `json:"node"`
	Step  int    `json:"step"`
	Type  string `json:"type"`
	Index int    `json:"index"`
}

// EncodeSchedule renders a schedule (with its graph) as indented JSON.
func EncodeSchedule(s *sched.Schedule) ([]byte, error) {
	if err := s.Verify(nil); err != nil {
		return nil, fmt.Errorf("dfgio: refusing to encode an illegal schedule: %w", err)
	}
	sj := scheduleJSON{
		Graph:   toJSON(s.Graph),
		CS:      s.CS,
		ClockNs: s.ClockNs,
		Latency: s.Latency,
	}
	for typ, on := range s.PipelinedTypes {
		if on {
			sj.Pipelined = append(sj.Pipelined, typ)
		}
	}
	sort.Strings(sj.Pipelined) // the map's order varies from call to call
	for _, n := range s.Graph.Nodes() {
		p, _ := s.At(n.ID)
		sj.Placements = append(sj.Placements, placementJSON{
			Node: n.Name, Step: p.Step, Type: p.Type, Index: p.Index,
		})
	}
	return json.MarshalIndent(sj, "", "  ")
}

// DecodeSchedule parses a schedule file, rebuilds the graph, and
// verifies the schedule's legality before returning it.
func DecodeSchedule(data []byte) (*sched.Schedule, error) {
	var sj scheduleJSON
	if err := json.Unmarshal(data, &sj); err != nil {
		return nil, fmt.Errorf("dfgio: %w", err)
	}
	if sj.Graph == nil {
		return nil, fmt.Errorf("dfgio: schedule file has no graph")
	}
	g, err := fromJSON(sj.Graph)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("dfgio: %w", err)
	}
	s := sched.NewSchedule(g, sj.CS)
	s.ClockNs = sj.ClockNs
	s.Latency = sj.Latency
	for _, typ := range sj.Pipelined {
		s.PipelinedTypes[typ] = true
	}
	for _, pj := range sj.Placements {
		n, ok := g.Lookup(pj.Node)
		if !ok {
			return nil, fmt.Errorf("dfgio: placement for unknown node %q", pj.Node)
		}
		s.Place(n.ID, sched.Placement{Step: pj.Step, Type: pj.Type, Index: pj.Index})
	}
	if err := s.Verify(nil); err != nil {
		return nil, fmt.Errorf("dfgio: decoded schedule is illegal: %w", err)
	}
	return s, nil
}
