// Package canon produces content hashes of a synthesis request — the
// triple (DFG, library, config) — so a long-running server can answer
// identical requests from a cache instead of re-synthesizing them.
//
// Two hashes are exposed:
//
//   - Fingerprint is the cache's entry key: a strict hash over every
//     byte of observable request content, names and order included.
//     Served responses embed names (schedules, netlists), so a cached
//     body is only byte-identical to fresh synthesis when the
//     fingerprints match exactly.
//   - Canonical is the design's structural identity: a hash computed
//     with the hash-consing idiom of internal/symb, insensitive to node
//     names and node insertion order. Isomorphic graphs — the same DAG
//     resubmitted under fresh signal names, or rebuilt in a different
//     node order — hash equal. No hlsd path computes it; it remains for
//     perfbench's traced serve run.
//
// Both hashes are sensitive to every semantic field: operation kinds,
// argument positions, cycle counts, chaining delays, mutual-exclusion
// tags, folded-loop bodies, every library cost parameter and unit, and
// every Config knob that can change the produced design (CS, Limits,
// ClockNs, Latency, PipelinedOps, Style, Weights, RegisterInputs,
// Optimize, Lint, NoTrace, and the normalized resource caps). The
// fields that provably cannot change a result — Parallelism (identical
// results at every setting, see DESIGN.md §7) and Timeout — are
// excluded, so retuning them still hits the cache.
//
// # Graph canonicalization
//
// Node colors are interned bottom-up exactly like symb's expression
// DAGs: a node's color is a digest of its operator, annotations, and
// its arguments' colors in operand order, so structurally equal
// subgraphs collapse to equal colors regardless of how they were named
// or ordered. Primary inputs start indistinguishable and are separated
// by position-aware Weisfeiler-Leman refinement: each round recolors an
// input by the multiset of (consumer color, operand position) pairs it
// feeds, then recomputes node colors, until the input partition is
// stable (or a fixed round cap, which only affects collision quality,
// never isomorphism-invariance). Inputs the refinement cannot separate
// keep their shared class color — no tie-break ever consults a name or
// a declaration position, so isomorphic graphs always hash equal. The
// price is one-sided: two non-isomorphic graphs that differ only in how
// refinement-tied inputs are wired can collide. No cache keys on
// Canonical, so a collision never serves a wrong result.
package canon

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/dfg"
	"repro/internal/guard"
	"repro/internal/library"
)

// Hash is a 256-bit content hash.
type Hash [sha256.Size]byte

// String renders the hash as lowercase hex.
func (h Hash) String() string { return hex.EncodeToString(h[:]) }

// IsZero reports whether the hash is the zero value (never a real hash
// of a request).
func (h Hash) IsZero() bool { return h == Hash{} }

// Canonical returns the order- and name-insensitive content hash of the
// request; see the package comment. A nil library hashes as the default
// (library.NCRLike), matching what synthesis would resolve it to.
func Canonical(g *dfg.Graph, lib *library.Library, cfg core.Config) (Hash, error) {
	cg, err := canonicalizeGraph(g)
	if err != nil {
		return Hash{}, err
	}
	return digest("canon/v1", cg.hash[:], hashLibrary(lib), hashConfig(cfg)), nil
}

// Fingerprint returns the strict content hash of the request: names,
// node order, and every semantic field. Two requests with equal
// fingerprints produce byte-identical synthesis artifacts.
func Fingerprint(g *dfg.Graph, lib *library.Library, cfg core.Config) (Hash, error) {
	fp, err := fingerprintGraph(g)
	if err != nil {
		return Hash{}, err
	}
	return digest("fp/v1", fp[:], hashLibrary(lib), hashConfig(cfg)), nil
}

// digest hashes a domain-separation tag plus any number of byte chunks,
// length-prefixing each chunk so concatenations cannot collide.
func digest(tag string, chunks ...[]byte) Hash {
	h := sha256.New()
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(tag)))
	h.Write(n[:])
	h.Write([]byte(tag))
	for _, c := range chunks {
		binary.BigEndian.PutUint64(n[:], uint64(len(c)))
		h.Write(n[:])
		h.Write(c)
	}
	var out Hash
	h.Sum(out[:0])
	return out
}

// enc is an append-only buffer with fixed-width primitive encoders; all
// multi-byte values are big-endian so encodings are platform-stable.
type enc struct {
	b  []byte
	at int // start of the chunk after open
}

// encs recycles encoding buffers: hlsd fingerprints every request it
// decodes, and a 300-node graph encodes to tens of kilobytes.
var encs = sync.Pool{New: func() any { return new(enc) }}

// getEnc returns an empty pooled buffer; hand it back with encs.Put once
// its bytes are hashed.
func getEnc() *enc {
	e := encs.Get().(*enc)
	e.b = e.b[:0]
	return e
}

// open resets e to the bytes digest(tag, chunk) streams up to the chunk:
// the length-prefixed tag, then a chunk length that sum patches in.
// Encode the chunk with e's encoders between open and sum; the buffer is
// reused, so the hot per-node digests allocate nothing.
func (e *enc) open(tag string) {
	e.b = e.b[:0]
	e.str(tag)
	e.u64(0)
	e.at = len(e.b)
}

// sum returns digest(tag, chunk) for the tag of open and the chunk
// encoded since.
func (e *enc) sum() Hash {
	binary.BigEndian.PutUint64(e.b[e.at-8:e.at], uint64(len(e.b)-e.at))
	return sha256.Sum256(e.b)
}

func (e *enc) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}
func (e *enc) u64(v uint64)  { e.b = binary.BigEndian.AppendUint64(e.b, v) }
func (e *enc) i64(v int64)   { e.u64(uint64(v)) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) bool(v bool)   { e.b = append(e.b, b2u(v)) }
func (e *enc) raw(p []byte)  { e.b = append(e.b, p...) }
func (e *enc) hash(h Hash)   { e.b = append(e.b, h[:]...) }

func b2u(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// --- Library hashing -------------------------------------------------

// hashLibrary digests every cost-model parameter and every unit cell.
// Unit names are semantic — Config.Limits and sweep summaries reference
// them — so they are included; the library's own display name is not.
func hashLibrary(lib *library.Library) []byte {
	if lib == nil {
		return ncrLikeHash()
	}
	return digestLibrary(lib)
}

// ncrLikeHash is the hash of the default library, computed once for
// every hash of a request without a library of its own.
var ncrLikeHash = sync.OnceValue(func() []byte { return digestLibrary(library.NCRLike()) })

// digestLibrary is hashLibrary for a non-nil library.
func digestLibrary(lib *library.Library) []byte {
	e := getEnc()
	defer encs.Put(e)
	e.f64(lib.RegArea)
	e.f64(lib.MuxBase)
	e.f64(lib.MuxStep)
	e.f64(lib.MuxCurve)
	units := append([]*library.Unit(nil), lib.Units()...)
	sort.Slice(units, func(i, j int) bool { return units[i].Name < units[j].Name })
	e.u64(uint64(len(units)))
	for _, u := range units {
		e.str(u.Name)
		e.f64(u.Area)
		e.u64(uint64(u.Stages))
		e.u64(uint64(len(u.Ops)))
		for _, k := range u.Ops { // sorted by library.Add
			e.u64(uint64(k))
		}
	}
	h := digest("lib/v1", e.b)
	return h[:]
}

// --- Config hashing --------------------------------------------------

// effectiveLimit mirrors core's knob resolution: 0 selects the default,
// negative disables (encoded as 0 = "no check"), so configurations that
// resolve to the same effective guard hash equal.
func effectiveLimit(knob, def int) int {
	switch {
	case knob == 0:
		return def
	case knob < 0:
		return 0
	default:
		return knob
	}
}

// hashConfig digests every Config field that can influence the produced
// design. Parallelism and Timeout are deliberately excluded (identical
// results at every setting); Lib is hashed separately by the callers.
func hashConfig(cfg core.Config) []byte {
	e := getEnc()
	defer encs.Put(e)
	e.u64(uint64(cfg.CS))
	keys := make([]string, 0, len(cfg.Limits))
	for k := range cfg.Limits {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	e.u64(uint64(len(keys)))
	for _, k := range keys {
		e.str(k)
		e.i64(int64(cfg.Limits[k]))
	}
	e.f64(cfg.ClockNs)
	e.u64(uint64(cfg.Latency))
	pipelined := append([]string(nil), cfg.PipelinedOps...)
	sort.Strings(pipelined)
	e.u64(uint64(len(pipelined)))
	for _, p := range pipelined {
		e.str(p)
	}
	style := cfg.Style
	if style == 0 {
		style = 1 // core treats 0 as style 1
	}
	e.u64(uint64(style))
	for _, w := range cfg.Weights {
		e.f64(w)
	}
	e.bool(cfg.RegisterInputs)
	e.bool(cfg.Optimize)
	e.bool(cfg.Lint)
	e.bool(cfg.NoTrace)
	e.u64(uint64(effectiveLimit(cfg.MaxNodes, guard.DefaultMaxNodes)))
	e.u64(uint64(effectiveLimit(cfg.MaxCSteps, guard.DefaultMaxCSteps)))
	h := digest("cfg/v1", e.b)
	return h[:]
}

// --- Strict graph fingerprint ---------------------------------------

// fingerprintGraph digests the graph exactly as constructed: name,
// inputs, and nodes in insertion order with their names, operators,
// operand names, and annotations. Folded loops recurse.
func fingerprintGraph(g *dfg.Graph) (Hash, error) {
	if g == nil {
		return Hash{}, fmt.Errorf("canon: nil graph")
	}
	e := getEnc()
	defer encs.Put(e)
	e.str(g.Name)
	ins := g.Inputs()
	e.u64(uint64(len(ins)))
	for _, in := range ins {
		e.str(in)
	}
	nodes := g.Nodes()
	e.u64(uint64(len(nodes)))
	for _, n := range nodes {
		e.str(n.Name)
		e.u64(uint64(n.Op))
		e.u64(uint64(len(n.Args)))
		for _, a := range n.Args {
			e.str(a)
		}
		e.u64(uint64(n.Cycles))
		e.f64(n.DelayNs)
		e.u64(uint64(len(n.Excl)))
		for _, t := range n.Excl {
			e.i64(int64(t.Cond))
			e.i64(int64(t.Branch))
		}
		if n.IsLoop() {
			sub, err := fingerprintGraph(n.Sub)
			if err != nil {
				return Hash{}, err
			}
			e.hash(sub)
			e.str(n.SubOut)
			e.u64(uint64(len(n.SubIns)))
			for _, s := range n.SubIns {
				e.str(s)
			}
		}
	}
	return digest("fpg/v1", e.b), nil
}

// --- Canonical graph hashing ----------------------------------------

// wlMaxRounds caps the refinement loop. The cap bounds cost on graphs
// with very wide input sets; any fixed cap preserves the
// isomorphism-invariance of the result (both copies run the same
// rounds), it only limits how finely non-isomorphic graphs are told
// apart — and the Fingerprint guard absorbs residual collisions.
const wlMaxRounds = 8

// canonGraph is the canonical form of one graph: its hash, the final
// color of every node, and the final (refined) color of every input.
type canonGraph struct {
	hash       Hash
	nodeColor  []Hash          // indexed by NodeID
	inputColor map[string]Hash // input name -> final WL color
}

// canonicalizeGraph computes the order- and name-insensitive canonical
// form. See the package comment for the algorithm.
func canonicalizeGraph(g *dfg.Graph) (*canonGraph, error) {
	if g == nil {
		return nil, fmt.Errorf("canon: nil graph")
	}
	inputs := g.Inputs() // sorted by name: the deterministic seed order
	inputIdx := make(map[string]int, len(inputs))
	for i, in := range inputs {
		inputIdx[in] = i
	}

	// Folded loops canonicalize recursively, once per loop node.
	subs := make(map[dfg.NodeID]*canonGraph)
	for _, n := range g.Nodes() {
		if n.IsLoop() {
			sub, err := canonicalizeGraph(n.Sub)
			if err != nil {
				return nil, fmt.Errorf("canon: loop %q: %w", n.Name, err)
			}
			subs[n.ID] = sub
		}
	}

	topo := g.TopoOrder()

	// uses lists, per input, the (consumer, operand position) pairs that
	// read it, in node order; refinement rounds only re-key them.
	type use struct {
		node dfg.NodeID
		pos  int
	}
	uses := make([][]use, len(inputs))
	for _, n := range g.Nodes() {
		for ai, a := range n.Args {
			if ii, ok := inputIdx[a]; ok {
				uses[ii] = append(uses[ii], use{n.ID, ai})
			}
		}
	}

	// nodeColors recomputes every node's color bottom-up from the
	// current input colors into col. The result is independent of
	// traversal order: a node's color is a pure function of its own
	// fields and its operands' colors.
	e := getEnc()
	defer encs.Put(e)
	col := make([]Hash, g.Len())
	nodeColors := func(inCol []Hash) error {
		for _, id := range topo {
			n := g.Node(id)
			e.open("node/v1")
			if sub := subs[id]; sub != nil {
				e.str("loop")
				e.hash(sub.hash)
				out, ok := n.Sub.Lookup(n.SubOut)
				if !ok {
					return fmt.Errorf("canon: loop %q: unknown sub output %q", n.Name, n.SubOut)
				}
				e.hash(sub.nodeColor[out.ID])
			} else {
				e.str("op")
				e.u64(uint64(n.Op))
			}
			e.u64(uint64(n.Cycles))
			e.f64(n.DelayNs)
			e.u64(uint64(len(n.Excl)))
			for _, t := range n.Excl {
				e.i64(int64(t.Cond))
				e.i64(int64(t.Branch))
			}
			e.u64(uint64(len(n.Args)))
			for ai, a := range n.Args {
				if ii, ok := inputIdx[a]; ok {
					e.hash(inCol[ii])
				} else if p, ok := g.Lookup(a); ok {
					e.hash(col[p.ID])
				} else {
					return fmt.Errorf("canon: node %q: unresolved argument %q", n.Name, a)
				}
				if sub := subs[id]; sub != nil {
					// Bind the operand to its role in the sub-graph
					// canonically: by the sub-input's refined color, not
					// its name. Tied sub inputs share a color, so the
					// binding is exactly as fine as the refinement.
					sc, ok := sub.inputColor[n.SubIns[ai]]
					if !ok {
						return fmt.Errorf("canon: loop %q: unknown sub input %q", n.Name, n.SubIns[ai])
					}
					e.hash(sc)
				}
			}
			col[id] = e.sum()
		}
		return nil
	}

	// Position-aware Weisfeiler-Leman refinement of the input colors:
	// every input starts with the same color and is recolored each round
	// by the sorted multiset of (consumer color, operand position) pairs
	// it feeds, until the partition of inputs into color classes is
	// stable or the round cap is reached.
	inCol, next := make([]Hash, len(inputs)), make([]Hash, len(inputs))
	seed := digest("in/v1")
	for i := range inCol {
		inCol[i] = seed
	}
	prev := partition(inCol)
	var keys [][40]byte
	for round := 0; round < wlMaxRounds; round++ {
		if err := nodeColors(inCol); err != nil {
			return nil, err
		}
		for i := range inputs {
			keys = keys[:0]
			for _, u := range uses[i] {
				var k [40]byte
				copy(k[:], col[u.node][:])
				binary.BigEndian.PutUint64(k[32:], uint64(u.pos))
				keys = append(keys, k)
			}
			slices.SortFunc(keys, func(x, y [40]byte) int { return bytes.Compare(x[:], y[:]) })
			e.open("in-refine/v1")
			e.hash(inCol[i])
			for k := range keys {
				e.raw(keys[k][:])
			}
			next[i] = e.sum()
		}
		inCol, next = next, inCol
		part := partition(inCol)
		if samePartition(prev, part) {
			break
		}
		prev = part
	}

	// Final colors are the stable WL colors themselves. Inputs the
	// refinement left tied stay tied — deliberately: any tie-break would
	// have to consult a name or a declaration position, and either leaks
	// the very information Canonical promises to be blind to.
	if err := nodeColors(inCol); err != nil {
		return nil, err
	}
	inColor := make(map[string]Hash, len(inputs))
	for i, in := range inputs {
		inColor[in] = inCol[i]
	}

	// The graph hash covers the input-color and node-color multisets
	// plus the sink (primary output) sub-multiset, so input roles and
	// output structure are both explicit.
	ins := slices.Clone(inCol)
	all := slices.Clone(col)
	var sinks []Hash
	for _, n := range g.Nodes() {
		if len(n.Succs()) == 0 {
			sinks = append(sinks, col[n.ID])
		}
	}
	for _, hs := range [][]Hash{ins, all, sinks} {
		slices.SortFunc(hs, func(x, y Hash) int { return bytes.Compare(x[:], y[:]) })
	}
	e.open("g/v1")
	e.u64(uint64(len(inputs)))
	e.u64(uint64(g.Len()))
	for _, c := range ins {
		e.hash(c)
	}
	e.str("nodes")
	for _, c := range all {
		e.hash(c)
	}
	e.str("sinks")
	for _, c := range sinks {
		e.hash(c)
	}
	return &canonGraph{hash: e.sum(), nodeColor: col, inputColor: inColor}, nil
}

// partition maps a color list to class ids, for stability comparison.
func partition(cols []Hash) []int {
	classes := make(map[Hash]int)
	out := make([]int, len(cols))
	for i, c := range cols {
		id, ok := classes[c]
		if !ok {
			id = len(classes)
			classes[c] = id
		}
		out[i] = id
	}
	return out
}

func samePartition(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
