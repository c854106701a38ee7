// Package dfg implements the data-flow-graph behavioral representation
// consumed by the MFS and MFSA algorithms. A Graph is a DAG of operations
// over named signals: every node produces exactly one output signal (its
// Name) and reads its Args, which are either primary inputs or the outputs
// of other nodes. Nodes carry the annotations the paper's extensions need:
// per-node cycle counts (multicycle operations, §5.3), combinational delays
// (chaining, §5.4), mutual-exclusion tags (conditionals, §5.1), and nested
// sub-graphs (loop folding, §5.2).
package dfg

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"

	"repro/internal/op"
)

// NodeID identifies a node within one Graph. IDs are dense, starting at 0,
// in insertion order.
type NodeID int

// SignalID identifies a signal — a primary input or a node's output —
// within one Graph. IDs are dense, starting at 0, in declaration order:
// AddInput, AddOp and AddLoop each mint the next one. Consumers index
// per-signal tables by it instead of interning names themselves. Two
// builds of the same graph that declare inputs in a different order
// number their signals differently, so no result may depend on id order.
type SignalID int32

// NoSignal stands for an absent signal, such as the second operand of a
// unary operation. No graph has it.
const NoSignal SignalID = -1

// CondTag marks membership in one branch of one conditional construct.
// Two operations are mutually exclusive when they carry tags with the same
// Cond but different Branch — they sit on opposite sides of an if/else or in
// different arms of a case, so they can never execute in the same run and
// may share a functional unit in the same control step (§5.1).
type CondTag struct {
	Cond   int // conditional construct identifier
	Branch int // branch within the construct
}

// Node is one operation in the graph.
type Node struct {
	ID   NodeID
	Op   op.Kind  // operation kind; Invalid iff Sub != nil
	Name string   // output signal name, unique within the graph
	Args []string // input signal names, in operand order

	// Cycles is the number of consecutive control steps the operation
	// occupies (k-cycle operations, §5.3). Always >= 1.
	Cycles int

	// DelayNs is the combinational propagation delay used by the chaining
	// extension (§5.4) to pack data-dependent operations into one control
	// step of a given clock period.
	DelayNs float64

	// Excl lists the conditional branches this operation belongs to
	// (innermost last). Empty for unconditional operations.
	Excl []CondTag

	// Sub, when non-nil, makes this node a folded loop: a nested graph
	// scheduled under its own local time constraint and treated here as a
	// single multi-cycle operation (§5.2). SubOut names the inner node whose
	// value this node produces; SubIns maps Args positionally onto the inner
	// graph's primary inputs.
	Sub    *Graph
	SubOut string
	SubIns []string

	preds []NodeID
	succs []NodeID
	args  []SignalID // parallel to Args
	out   SignalID
}

// IsLoop reports whether the node is a folded-loop super-operation.
func (n *Node) IsLoop() bool { return n.Sub != nil }

// Preds returns the IDs of nodes whose outputs this node consumes.
// The returned slice must not be modified.
func (n *Node) Preds() []NodeID { return n.preds }

// Succs returns the IDs of nodes consuming this node's output.
// The returned slice must not be modified.
func (n *Node) Succs() []NodeID { return n.succs }

// ArgIDs returns the signal IDs of Args, in operand order.
// The returned slice must not be modified.
func (n *Node) ArgIDs() []SignalID { return n.args }

// OutID returns the signal ID of the node's output.
func (n *Node) OutID() SignalID { return n.out }

// Graph is a data-flow graph under construction or in use. The zero value
// is not ready; use New.
type Graph struct {
	Name string

	nodes []*Node
	// signals is the name index of every signal. src[id] is the NodeID
	// producing signal id, or ^k for the k-th declared input, ins[k].
	signals map[string]SignalID
	src     []int32
	ins     []string
	frozen  bool
}

// New returns an empty graph with the given diagnostic name.
func New(name string) *Graph { return NewSized(name, 0, 0) }

// NewSized is New with room for the given numbers of inputs and nodes, so
// a builder that knows its size (a decoder, a rewrite) never regrows the
// graph's tables. The sizes are hints: the graph grows past them.
func NewSized(name string, inputs, nodes int) *Graph {
	inputs, nodes = max(inputs, 0), max(nodes, 0)
	return &Graph{
		Name:    name,
		nodes:   make([]*Node, 0, nodes),
		signals: make(map[string]SignalID, inputs+nodes),
		src:     make([]int32, 0, inputs+nodes),
		ins:     make([]string, 0, inputs),
	}
}

// AddInput declares a primary input signal. Declaring the same input twice
// is harmless; reusing the name of an existing node is an error.
func (g *Graph) AddInput(name string) error {
	if g.frozen {
		return fmt.Errorf("dfg %s: graph is frozen", g.Name)
	}
	if name == "" {
		return fmt.Errorf("dfg %s: empty input name", g.Name)
	}
	if id, ok := g.signals[name]; ok {
		if g.src[id] >= 0 {
			return fmt.Errorf("dfg %s: input %q collides with node output", g.Name, name)
		}
		return nil
	}
	g.signals[name] = SignalID(len(g.src))
	g.src = append(g.src, ^int32(len(g.ins)))
	g.ins = append(g.ins, name)
	return nil
}

// AddOp appends an operation node producing signal name from args and
// returns its ID. Args must already exist as primary inputs or node outputs
// (the graph is built in topological order by construction).
func (g *Graph) AddOp(name string, k op.Kind, args ...string) (NodeID, error) {
	if err := g.checkNew(name); err != nil {
		return -1, err
	}
	if !k.Valid() {
		return -1, fmt.Errorf("dfg %s: node %q: invalid op", g.Name, name)
	}
	if len(args) != k.Arity() {
		return -1, fmt.Errorf("dfg %s: node %q: op %v wants %d args, got %d",
			g.Name, name, k, k.Arity(), len(args))
	}
	n := &Node{
		ID:      NodeID(len(g.nodes)),
		Op:      k,
		Name:    name,
		Args:    append([]string(nil), args...),
		Cycles:  k.DefaultCycles(),
		DelayNs: k.DefaultDelayNs(),
	}
	if err := g.link(n); err != nil {
		return -1, err
	}
	return n.ID, nil
}

// AddLoop appends a folded-loop super-operation (§5.2). sub is the loop
// body (already built, typically already scheduled so its Cycles/local time
// constraint is known), subOut names the inner node whose value the loop
// exposes, and binds maps each of sub's primary inputs to an outer signal.
// The node's Cycles defaults to 1 until SetCycles records the loop's local
// time constraint.
func (g *Graph) AddLoop(name string, sub *Graph, subOut string, binds map[string]string) (NodeID, error) {
	if err := g.checkNew(name); err != nil {
		return -1, err
	}
	if sub == nil {
		return -1, fmt.Errorf("dfg %s: loop %q: nil body", g.Name, name)
	}
	if _, ok := sub.Lookup(subOut); !ok {
		return -1, fmt.Errorf("dfg %s: loop %q: body has no node %q", g.Name, name, subOut)
	}
	ins := sub.Inputs()
	if len(binds) != len(ins) {
		return -1, fmt.Errorf("dfg %s: loop %q: body has %d inputs, %d bound",
			g.Name, name, len(ins), len(binds))
	}
	args := make([]string, 0, len(ins))
	subIns := make([]string, 0, len(ins))
	for _, in := range ins {
		outer, ok := binds[in]
		if !ok {
			return -1, fmt.Errorf("dfg %s: loop %q: body input %q not bound", g.Name, name, in)
		}
		args = append(args, outer)
		subIns = append(subIns, in)
	}
	n := &Node{
		ID:     NodeID(len(g.nodes)),
		Op:     op.Invalid,
		Name:   name,
		Args:   args,
		Cycles: 1,
		Sub:    sub,
		SubOut: subOut,
		SubIns: subIns,
	}
	if err := g.link(n); err != nil {
		return -1, err
	}
	return n.ID, nil
}

func (g *Graph) checkNew(name string) error {
	if g.frozen {
		return fmt.Errorf("dfg %s: graph is frozen", g.Name)
	}
	if name == "" {
		return fmt.Errorf("dfg %s: empty node name", g.Name)
	}
	if id, ok := g.signals[name]; ok {
		if g.src[id] >= 0 {
			return fmt.Errorf("dfg %s: duplicate node %q", g.Name, name)
		}
		return fmt.Errorf("dfg %s: node %q collides with primary input", g.Name, name)
	}
	return nil
}

// link resolves n's arguments, then cross-links it with its producers and
// appends it. Every argument is resolved before any producer is touched,
// so a node with an undefined argument leaves the graph as it was.
func (g *Graph) link(n *Node) error {
	n.args = make([]SignalID, len(n.Args))
	preds := 0
	for i, a := range n.Args {
		id, ok := g.signals[a]
		if !ok {
			return fmt.Errorf("dfg %s: node %q: undefined signal %q", g.Name, n.Name, a)
		}
		n.args[i] = id
		if g.src[id] >= 0 {
			preds++
		}
	}
	if preds > 0 {
		n.preds = make([]NodeID, 0, preds)
	}
	for _, id := range n.args {
		if g.src[id] < 0 {
			continue
		}
		// n is the newest node, so a producer already linked to it has n
		// as its last successor.
		p := g.nodes[g.src[id]]
		if k := len(p.succs); k == 0 || p.succs[k-1] != n.ID {
			n.preds = append(n.preds, p.ID)
			p.succs = append(p.succs, n.ID)
		}
	}
	n.out = SignalID(len(g.src))
	g.nodes = append(g.nodes, n)
	g.signals[n.Name] = n.out
	g.src = append(g.src, int32(n.ID))
	return nil
}

// SetCycles overrides the number of control steps node id occupies
// (k >= 1). Used to model 2-cycle multipliers and folded-loop durations.
func (g *Graph) SetCycles(id NodeID, k int) error {
	if k < 1 {
		return fmt.Errorf("dfg %s: SetCycles(%d): cycles %d < 1", g.Name, id, k)
	}
	n, err := g.node(id)
	if err != nil {
		return err
	}
	n.Cycles = k
	return nil
}

// SetDelayNs overrides the combinational delay of node id (chaining, §5.4).
func (g *Graph) SetDelayNs(id NodeID, ns float64) error {
	if ns <= 0 {
		return fmt.Errorf("dfg %s: SetDelayNs(%d): delay %v <= 0", g.Name, id, ns)
	}
	n, err := g.node(id)
	if err != nil {
		return err
	}
	n.DelayNs = ns
	return nil
}

// Tag appends conditional-branch membership to node id (§5.1).
func (g *Graph) Tag(id NodeID, tags ...CondTag) error {
	n, err := g.node(id)
	if err != nil {
		return err
	}
	n.Excl = append(n.Excl, tags...)
	return nil
}

func (g *Graph) node(id NodeID) (*Node, error) {
	if id < 0 || int(id) >= len(g.nodes) {
		return nil, fmt.Errorf("dfg %s: no node %d", g.Name, id)
	}
	return g.nodes[id], nil
}

// Node returns the node with the given ID; it panics on a bad ID, which
// always indicates a programming error: IDs are minted only by this
// graph's Add* methods, so a lookup can fail only when a caller crosses
// IDs between graphs or fabricates one — unreachable through correct use
// of the API, and not a condition an error return could make the buggy
// caller handle sensibly.
func (g *Graph) Node(id NodeID) *Node {
	n, err := g.node(id)
	if err != nil {
		panic("dfg: " + err.Error())
	}
	return n
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Lookup returns the node producing the named signal, if any.
func (g *Graph) Lookup(name string) (*Node, bool) {
	if id, ok := g.signals[name]; ok && g.src[id] >= 0 {
		return g.nodes[g.src[id]], true
	}
	return nil, false
}

// NumSignals returns the number of signals: primary inputs plus nodes.
func (g *Graph) NumSignals() int { return len(g.src) }

// Signal returns the ID of the named signal, if the graph has one.
func (g *Graph) Signal(name string) (SignalID, bool) {
	id, ok := g.signals[name]
	return id, ok
}

// SignalName returns the name of signal id.
func (g *Graph) SignalName(id SignalID) string {
	if p := g.src[id]; p >= 0 {
		return g.nodes[p].Name
	}
	return g.ins[^g.src[id]]
}

// HasSignal reports whether id names a signal of g.
func (g *Graph) HasSignal(id SignalID) bool { return id >= 0 && int(id) < len(g.src) }

// SignalLabel is the name of signal id, or "#id" when g has no such
// signal or is nil. Text about an artifact that may name signals outside
// its graph — a corrupted datapath or a hand-built controller — prints
// it.
func (g *Graph) SignalLabel(id SignalID) string {
	if g != nil && g.HasSignal(id) {
		return g.SignalName(id)
	}
	return "#" + strconv.Itoa(int(id))
}

// NodeLabel is the name of node id, or "#id" when g has no such node or
// is nil; SignalLabel says who prints it.
func (g *Graph) NodeLabel(id NodeID) string {
	if g != nil && id >= 0 && int(id) < len(g.nodes) {
		return g.nodes[id].Name
	}
	return "#" + strconv.Itoa(int(id))
}

// Producer returns the node whose output is signal id, or nil when id is
// a primary input.
func (g *Graph) Producer(id SignalID) *Node {
	if p := g.src[id]; p >= 0 {
		return g.nodes[p]
	}
	return nil
}

// Inputs returns the primary input names in sorted order.
func (g *Graph) Inputs() []string {
	ins := slices.Clone(g.ins)
	sort.Strings(ins)
	return ins
}

// Outputs returns the names of nodes with no successors (the design's
// primary outputs), sorted.
func (g *Graph) Outputs() []string {
	var outs []string
	for _, n := range g.nodes {
		if len(n.succs) == 0 {
			outs = append(outs, n.Name)
		}
	}
	sort.Strings(outs)
	return outs
}

// Nodes returns all nodes in ID order. The slice must not be modified.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Freeze marks the graph immutable: further AddInput/AddOp/AddLoop
// calls fail. Callers can freeze a graph once a schedule has been
// computed from it so the structure cannot drift under the schedule.
func (g *Graph) Freeze() { g.frozen = true }

// MutuallyExclusive reports whether nodes a and b can never execute in the
// same run: they carry tags for the same conditional but different branches.
func (g *Graph) MutuallyExclusive(a, b NodeID) bool {
	na, nb := g.Node(a), g.Node(b)
	for _, ta := range na.Excl {
		for _, tb := range nb.Excl {
			if ta.Cond == tb.Cond && ta.Branch != tb.Branch {
				return true
			}
		}
	}
	return false
}

// HasExclusions reports whether any node carries a mutual-exclusion tag
// — i.e. whether MutuallyExclusive can ever return true on this graph.
// When it cannot, an occupied grid cell is provably illegal for every
// operation, which lets the schedulers' window walks skip occupied cells
// straight from grid.Table's occupancy index without consulting the
// occupant lists. The scan is O(nodes); callers that probe it per
// placement should cache the answer for the duration of one run (tags
// are set at graph-construction time, before scheduling starts).
func (g *Graph) HasExclusions() bool {
	for _, n := range g.nodes {
		if len(n.Excl) > 0 {
			return true
		}
	}
	return false
}

// TopoOrder returns node IDs in a deterministic topological order
// (dependencies first; ties broken by ID). Graphs are acyclic by
// construction, so this always succeeds.
func (g *Graph) TopoOrder() []NodeID {
	order := make([]NodeID, len(g.nodes))
	for i := range order {
		order[i] = NodeID(i) // insertion order is already topological
	}
	return order
}

// CriticalPathCycles returns the length, in control steps, of the longest
// dependency chain — the minimum feasible time constraint (without
// chaining).
func (g *Graph) CriticalPathCycles() int {
	finish := make([]int, len(g.nodes))
	longest := 0
	for _, id := range g.TopoOrder() {
		n := g.nodes[id]
		start := 0
		for _, p := range n.preds {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[id] = start + n.Cycles
		if finish[id] > longest {
			longest = finish[id]
		}
	}
	return longest
}

// Validate checks structural invariants: unique non-empty names, a
// signal index that names every input and node output by its ID, defined
// arguments whose IDs name them, positive cycle counts, consistent
// pred/succ cross-links, and well-formed loop nodes. It returns the first
// violation found.
func (g *Graph) Validate() error {
	if len(g.src) != len(g.ins)+len(g.nodes) || len(g.signals) != len(g.src) {
		return fmt.Errorf("dfg %s: %d signal IDs for %d inputs and %d nodes", g.Name, len(g.src), len(g.ins), len(g.nodes))
	}
	for k, in := range g.ins {
		if id, ok := g.signals[in]; !ok || g.src[id] != ^int32(k) {
			return fmt.Errorf("dfg %s: input %q: name index broken", g.Name, in)
		}
	}
	for _, n := range g.nodes {
		if n.Name == "" {
			return fmt.Errorf("dfg %s: node %d: empty name", g.Name, n.ID)
		}
		if id, ok := g.signals[n.Name]; !ok || id != n.out || NodeID(g.src[id]) != n.ID {
			return fmt.Errorf("dfg %s: node %q: name index broken", g.Name, n.Name)
		}
		if n.Cycles < 1 {
			return fmt.Errorf("dfg %s: node %q: cycles %d", g.Name, n.Name, n.Cycles)
		}
		if n.IsLoop() {
			if n.Op.Valid() {
				return fmt.Errorf("dfg %s: loop %q has op %v", g.Name, n.Name, n.Op)
			}
			if err := n.Sub.Validate(); err != nil {
				return fmt.Errorf("dfg %s: loop %q: %w", g.Name, n.Name, err)
			}
		} else {
			if !n.Op.Valid() {
				return fmt.Errorf("dfg %s: node %q: invalid op", g.Name, n.Name)
			}
			if len(n.Args) != n.Op.Arity() {
				return fmt.Errorf("dfg %s: node %q: arity mismatch", g.Name, n.Name)
			}
		}
		if len(n.args) != len(n.Args) {
			return fmt.Errorf("dfg %s: node %q: %d arg IDs for %d args", g.Name, n.Name, len(n.args), len(n.Args))
		}
		for i, a := range n.Args {
			if id := n.args[i]; id >= 0 && id < n.out && g.SignalName(id) == a {
				continue
			}
			if _, ok := g.signals[a]; !ok {
				return fmt.Errorf("dfg %s: node %q: undefined arg %q", g.Name, n.Name, a)
			}
			return fmt.Errorf("dfg %s: node %q: arg %d has ID %d, not %q's", g.Name, n.Name, i, n.args[i], a)
		}
		for _, p := range n.preds {
			if p >= n.ID {
				return fmt.Errorf("dfg %s: node %q: forward pred %d", g.Name, n.Name, p)
			}
			if !containsID(g.nodes[p].succs, n.ID) {
				return fmt.Errorf("dfg %s: node %q: pred %d missing back-link", g.Name, n.Name, p)
			}
		}
		for _, s := range n.succs {
			if !containsID(g.nodes[s].preds, n.ID) {
				return fmt.Errorf("dfg %s: node %q: succ %d missing back-link", g.Name, n.Name, s)
			}
		}
	}
	return nil
}

func containsID(ids []NodeID, id NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the graph (loop bodies are shared, since
// they are scheduled independently and treated as read-only here). The
// clone is unfrozen.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Name:    g.Name,
		nodes:   make([]*Node, len(g.nodes)),
		signals: maps.Clone(g.signals),
		src:     slices.Clone(g.src),
		ins:     slices.Clone(g.ins),
	}
	for i, n := range g.nodes {
		cn := *n
		cn.Args = append([]string(nil), n.Args...)
		cn.Excl = append([]CondTag(nil), n.Excl...)
		cn.SubIns = append([]string(nil), n.SubIns...)
		cn.preds = append([]NodeID(nil), n.preds...)
		cn.succs = append([]NodeID(nil), n.succs...)
		cn.args = append([]SignalID(nil), n.args...)
		c.nodes[i] = &cn
	}
	return c
}
