package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math/rand"

	"repro/internal/core"
	"repro/internal/ctrl"
	"repro/internal/dfg"
	"repro/internal/dfgio"
	"repro/internal/emit"
	"repro/internal/gen"
	"repro/internal/mfsa"
	"repro/internal/pool"
	"repro/internal/sched"
	"repro/internal/sim"
)

// The scale workload synthesizes one ~2k-node design to a netlist per
// op: random layered DAGs with 2-cycle multipliers plus the 1024-tap FIR
// kernel, every one time-constrained at its critical path + 4 steps. The
// DAG shapes come from fixed generator seeds; the workload seed relabels
// every design and sets the pass order (see relabel).
const (
	scaleDAGs    = 12   // random DAG shapes, generator seeds 1..scaleDAGs
	scaleNodes   = 2000 // operations per random DAG
	scaleFIRTaps = 1024 // fir2k: 2047 operations
	scaleMulCyc  = 2
	scaleCSSlack = 4
	scalePassMs  = 1100
)

type scaleDesign struct {
	g  *dfg.Graph
	cs int
}

// scaleRec is what one op produced, kept for the output checks.
type scaleRec struct {
	cost    float64
	netlist uint64 // maphash of the netlist text
}

type scaleBench struct {
	designs []scaleDesign // one pass, in op order
	recs    []scaleRec    // per op of the run
	seed    maphash.Seed
	hash    [sha256.Size]byte
}

// scaleInputs builds the seeded input set in pass order.
func scaleInputs(seed int64) ([]scaleDesign, error) {
	r := rand.New(rand.NewSource(seed))
	var ds []scaleDesign
	add := func(shape *dfg.Graph, name string) error {
		g, err := relabel(shape, r, name)
		if err != nil {
			return err
		}
		ds = append(ds, scaleDesign{g: g, cs: g.CriticalPathCycles() + scaleCSSlack})
		return nil
	}
	for k := 1; k <= scaleDAGs; k++ {
		shape, err := gen.Generate(gen.Config{Nodes: scaleNodes, MulCycles: scaleMulCyc, Seed: int64(k)})
		if err != nil {
			return nil, err
		}
		if err := add(shape, fmt.Sprintf("dag%d", k)); err != nil {
			return nil, err
		}
	}
	fir, err := gen.FIR(scaleFIRTaps, scaleMulCyc)
	if err != nil {
		return nil, err
	}
	if err := add(fir, "fir2k"); err != nil {
		return nil, err
	}
	r.Shuffle(len(ds), func(i, j int) { ds[i], ds[j] = ds[j], ds[i] })
	return ds, nil
}

func setupScale(ctx context.Context, seed int64, passes int) (bench, error) {
	ds, err := scaleInputs(seed)
	if err != nil {
		return nil, err
	}
	b := &scaleBench{designs: ds, seed: maphash.MakeSeed()}
	if b.hash, err = hashGraphs(ds); err != nil {
		return nil, err
	}
	b.recs = make([]scaleRec, passes*len(ds))
	for i := range ds { // the warm pass
		if _, _, err := b.synth(ctx, ds[i]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// hashGraphs hashes the dfgio encoding and time constraint of every
// design in pass order.
func hashGraphs(ds []scaleDesign) ([sha256.Size]byte, error) {
	h := sha256.New()
	for _, d := range ds {
		gj, err := dfgio.EncodeGraph(d.g)
		if err != nil {
			return [sha256.Size]byte{}, err
		}
		h.Write(gj)
		h.Write(binary.BigEndian.AppendUint64(nil, uint64(d.cs)))
	}
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out, nil
}

func (b *scaleBench) passOps() int                    { return len(b.designs) }
func (b *scaleBench) cacheCounters() (uint64, uint64) { return 0, 0 }
func (b *scaleBench) inputHash() [sha256.Size]byte    { return b.hash }

// synth is the product path: core.SynthesizeCtx, then Design.Netlist.
func (b *scaleBench) synth(ctx context.Context, sd scaleDesign) (*core.Design, string, error) {
	d, err := core.SynthesizeCtx(ctx, sd.g, core.Config{CS: sd.cs})
	if err != nil {
		return nil, "", err
	}
	nl, err := d.Netlist()
	return d, nl, err
}

func (b *scaleBench) op(ctx context.Context, i int, tr *tracer, root int) error {
	sd := b.designs[i%len(b.designs)]
	var cost float64
	var nl string
	if tr == nil {
		d, text, err := b.synth(ctx, sd)
		if err != nil {
			return err
		}
		cost, nl = d.Cost.Total, text
	} else {
		t, err := tracedSynth(ctx, tr, i, root, sd.g, mfsa.Options{CS: sd.cs})
		if err != nil {
			return err
		}
		cost, nl = t.res.Cost.Total, t.netlist
	}
	b.recs[i] = scaleRec{cost: cost, netlist: maphash.String(b.seed, nl)}
	return nil
}

// traced is what tracedSynth built.
type traced struct {
	res     *mfsa.Result
	ctrl    *ctrl.Controller
	netlist string
}

// tracedSynth makes the calls core.SynthesizeCtx and Design.Netlist
// make, one span each, plus the schedule frames and priority order
// beside mfsa and a re-run of mfsa's closing mux post-pass, which
// leaves the datapath unchanged.
func tracedSynth(ctx context.Context, tr *tracer, i, parent int, g *dfg.Graph, opt mfsa.Options) (*traced, error) {
	if err := tr.do("sched", i, parent, func() error {
		f, err := sched.ComputeFrames(g, opt.CS, opt.ClockNs)
		if err != nil {
			return err
		}
		sched.PriorityOrder(g, f)
		return nil
	}); err != nil {
		return nil, err
	}
	t := &traced{}
	if err := tr.do("mfsa", i, parent, func() (err error) {
		t.res, err = mfsa.SynthesizeCtx(ctx, g, opt)
		return err
	}); err != nil {
		return nil, err
	}
	tr.do("rtl.muxopt", i, parent, func() error {
		t.res.Datapath.ReoptimizeMuxes(g)
		return nil
	})
	if err := tr.do("ctrl", i, parent, func() (err error) {
		t.ctrl, err = ctrl.Build(g, t.res.Schedule, t.res.Datapath)
		return err
	}); err != nil {
		return nil, err
	}
	tr.do("emit", i, parent, func() error {
		t.netlist = emit.Verilog(g, t.res.Schedule, t.res.Datapath, t.ctrl)
		return nil
	})
	return t, nil
}

// check synthesizes each distinct design once more, cross-checks it
// against the DFG interpreter, and compares every op's cost and netlist
// to it.
func (b *scaleBench) check(ctx context.Context, n int) (*report, error) {
	type verified struct {
		want    scaleRec
		nlBytes int
		simOK   bool
	}
	vs, err := pool.MapCtx(ctx, pool.Size(0), len(b.designs), func(k int) (verified, error) {
		sd := b.designs[k]
		d, nl, err := b.synth(ctx, sd)
		if err != nil {
			return verified{}, fmt.Errorf("%s: %w", sd.g.Name, err)
		}
		return verified{
			want:    scaleRec{cost: d.Cost.Total, netlist: maphash.String(b.seed, nl)},
			nlBytes: len(nl),
			simOK:   sim.CrossCheckSeedsCtx(ctx, d.Schedule, d.Datapath, 0, nil) == nil,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var sumArea, sumNodes float64
	for k, sd := range b.designs {
		sumArea += vs[k].want.cost
		sumNodes += float64(sd.g.Len())
	}
	rep := &report{failed: make([]bool, n), nodes: make([]int, n), netlistBytes: make([]int, n),
		areaPerNode: sumArea / sumNodes}
	for i := 0; i < n; i++ {
		v := vs[i%len(b.designs)]
		rep.failed[i] = !v.simOK || b.recs[i] != v.want
		rep.nodes[i] = b.designs[i%len(b.designs)].g.Len()
		rep.netlistBytes[i] = v.nlBytes
	}
	return rep, nil
}
