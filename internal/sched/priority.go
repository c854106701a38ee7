package sched

import (
	"context"

	"repro/internal/dfg"
)

// pollEvery is how many nodes PriorityOrderCtx emits between context
// polls: a 100k-node order takes about 100 ms, and ctx.Err takes a lock.
const pollEvery = 1024

// PriorityOrder is PriorityOrderCtx without cancellation.
func PriorityOrder(g *dfg.Graph, frames Frames) []dfg.NodeID {
	order, _ := PriorityOrderCtx(context.Background(), g, frames)
	return order
}

// PriorityOrderCtx implements MFS step 2: operations are ranked by walking
// the ALAP schedule from the first control step onward, and within a step
// the operation with the smaller mobility goes first. Two refinements from
// §5.3 apply to multicycle operations: when the mobility difference
// between two k-cycle operations is smaller than k the rule inverts (the
// more mobile one goes first, since it can always fall back on empty
// positions), and remaining ties go to the operation whose predecessors
// finish earlier. Final ties break on node ID so runs are deterministic
// (the paper breaks them "arbitrarily"). The emission loop polls ctx
// every pollEvery nodes and returns ctx.Err() once ctx is done.
func PriorityOrderCtx(ctx context.Context, g *dfg.Graph, frames Frames) ([]dfg.NodeID, error) {
	ids := g.TopoOrder()
	earliest := make([]int, g.Len())
	//hls:ctxok one O(edges) pass, a few ms at the 100k-node ceiling; the emission loop below polls
	for _, id := range ids {
		n := g.Node(id)
		e := 0
		//hls:ctxok reads one node's predecessors; the enclosing pass is one O(edges) sweep
		for _, p := range n.Preds() {
			if f := frames[p].ASAP + g.Node(p).Cycles - 1; f > e {
				e = f
			}
		}
		earliest[id] = e // latest finishing step among predecessors' ASAPs
	}
	higher := func(a, b dfg.NodeID) bool {
		fa, fb := frames[a], frames[b]
		if fa.ALAP != fb.ALAP {
			return fa.ALAP < fb.ALAP
		}
		na, nb := g.Node(a), g.Node(b)
		ma, mb := fa.Mobility(), fb.Mobility()
		if ma != mb {
			k := na.Cycles
			if nb.Cycles > k {
				k = nb.Cycles
			}
			if k > 1 && abs(ma-mb) < k {
				return ma > mb // inverted rule for close multicycle ops
			}
			return ma < mb
		}
		if earliest[a] != earliest[b] {
			return earliest[a] < earliest[b]
		}
		return a < b
	}
	// Emit nodes by priority, constrained to topological order: without
	// chaining an operation's ALAP is strictly earlier than its
	// successors', so this reproduces the plain priority sort exactly;
	// chaining can tie ALAPs across an edge, and committing a consumer
	// before its producer would let the consumer's placement strand the
	// producer without a legal chain slot.
	//
	// The ready list is a binary heap under higher(), O(N log W) for
	// ready-width W instead of the historical O(N·W) best-of-list scan.
	// higher() is antisymmetric with a final ID tie-break, but the §5.3
	// inverted rule makes it non-transitive across mixed-cycle pairs
	// (each pair uses its own k = max cycles), so inside that region no
	// comparison-based order is canonical — the paper breaks such ties
	// "arbitrarily", and the heap's arbitrary choice may differ from the
	// scan's. Outside it (equal-ALAP groups of uniform cycle count — in
	// particular every all-single-cycle graph, and all six paper
	// benchmarks) higher() is a strict total order and the heap pops
	// exactly the scan's unique maximum; priority order equivalence is
	// pinned by TestPriorityOrderMatchesScanOracle.
	out := make([]dfg.NodeID, 0, len(ids))
	pending := make([]int, g.Len()) // unprocessed pred count
	//hls:ctxok one O(nodes) pass, a few ms at the 100k-node ceiling; the emission loop below polls
	for _, id := range ids {
		pending[id] = len(g.Node(id).Preds())
	}
	ready := make([]dfg.NodeID, 0, len(ids))
	push := func(id dfg.NodeID) {
		ready = append(ready, id)
		for i := len(ready) - 1; i > 0; {
			p := (i - 1) / 2
			if !higher(ready[i], ready[p]) {
				break
			}
			ready[i], ready[p] = ready[p], ready[i]
			i = p
		}
	}
	pop := func() dfg.NodeID {
		top := ready[0]
		last := len(ready) - 1
		ready[0] = ready[last]
		ready = ready[:last]
		for i := 0; ; {
			b, l, r := i, 2*i+1, 2*i+2
			if l < last && higher(ready[l], ready[b]) {
				b = l
			}
			if r < last && higher(ready[r], ready[b]) {
				b = r
			}
			if b == i {
				break
			}
			ready[i], ready[b] = ready[b], ready[i]
			i = b
		}
		return top
	}
	//hls:ctxok one O(nodes) pass over the sources, a few ms at the 100k-node ceiling; the emission loop below polls
	for _, id := range ids {
		if pending[id] == 0 {
			push(id)
		}
	}
	for len(ready) > 0 {
		if len(out)%pollEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		id := pop()
		out = append(out, id)
		//hls:ctxok releases one node's successors; the enclosing emission loop polls every pollEvery nodes
		for _, s := range g.Node(id).Succs() {
			pending[s]--
			if pending[s] == 0 {
				push(s)
			}
		}
	}
	return out, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
