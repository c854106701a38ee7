package diag

// Stable diagnostic codes. The block a code lives in names the artifact
// layer; a code's meaning never changes once shipped (retire codes by
// leaving a gap, never by reuse). Docs maps every live code to its
// one-line contract; internal/lint's registry test asserts that each
// code produced anywhere in the tree is documented here.
const (
	// Lint driver (HL00xx).
	CodeAnalyzerCrash = "HL0001" // an analyzer returned a hard error instead of diagnostics

	// Data-flow graph (HL001x).
	CodeDFGEmptyName = "HL0010" // node with an empty output-signal name
	CodeDFGUndefined = "HL0011" // dangling edge: argument names no input or node output
	CodeDFGArity     = "HL0012" // operand count disagrees with the op table arity
	CodeDFGCycle     = "HL0013" // the name-resolved dataflow relation has a cycle
	CodeDFGDeadNode  = "HL0014" // node unreachable backwards from any declared output
	CodeDFGCrossLink = "HL0015" // cached pred/succ links disagree with the Args relation
	CodeDFGBadCycles = "HL0016" // non-positive per-node cycle count
	CodeDFGBadLoop   = "HL0017" // malformed folded-loop node
	CodeDFGDupName   = "HL0018" // two nodes (or a node and an input) share a name

	// Frames and schedule legality (HL01xx). HL0101 (recorded
	// MF != PF − (RF ∪ FF)) is retired: a trace step records one window,
	// from which all four frames follow.
	CodeFrameMember   = "HL0102" // committed position outside its recorded move frame
	CodeFrameBounds   = "HL0103" // recorded PF outside the independent ASAP/ALAP window
	CodeSchedWindow   = "HL0104" // placement outside the independently recomputed time frame
	CodeFrameMismatch = "HL0105" // recorded PF/RF/FF differ from the independent re-derivation

	CodeSchedUnplaced   = "HL0110" // graph node with no placement
	CodeSchedStepRange  = "HL0111" // placement (or its multicycle tail) outside 1..CS
	CodeSchedBadSlot    = "HL0112" // non-positive FU index or empty FU type
	CodeSchedPipeline   = "HL0113" // multicycle op exceeds the pipelining initiation interval
	CodeSchedDepOrder   = "HL0114" // consumer starts before a producer completes
	CodeSchedChain      = "HL0115" // intra-step combinational chain exceeds the clock period
	CodeSchedFUConflict = "HL0116" // two non-exclusive ops collide on one FU instance
	CodeSchedLimit      = "HL0117" // per-type instance count exceeds the user limit

	// Liapunov audit (HL02xx).
	CodeLiapProperties = "HL0201" // guiding function violates the theorem's grid properties
	CodeLiapEnergy     = "HL0202" // recorded energy != V(position) on replay
	CodeLiapDescent    = "HL0203" // non-decreasing V(X) step: a strictly lower-energy move-frame position was free
	CodeLiapTie        = "HL0204" // degenerate (tied) energies along a replayed trajectory
	CodeLiapCandidate  = "HL0205" // committed choice costs more than an evaluated alternative
	CodeLiapReplay     = "HL0206" // recorded trajectory is not replayable on an empty grid

	// Allocation / datapath (HL03xx).
	CodeRegOverlap     = "HL0301" // two lifetimes in one register overlap
	CodeALUUnplaced    = "HL0302" // ALU binding references a node the schedule never placed
	CodeMuxDupInput    = "HL0303" // duplicate signal in a multiplexer input list
	CodeMuxUnknown     = "HL0304" // multiplexer input names no input, node output or constant
	CodeALUDupBind     = "HL0305" // node bound to more than one ALU
	CodeAllocUnbound   = "HL0306" // scheduled node with no ALU binding
	CodeAllocStep      = "HL0307" // binding step disagrees with the schedule
	CodeALUNoUnit      = "HL0308" // ALU instance with no library unit
	CodeALUOpMismatch  = "HL0309" // bound operation not in its unit's capability set
	CodeStyle2SelfLoop = "HL0310" // style-2 violation: data-dependent ops share an ALU
	CodeALUBadStep     = "HL0311" // binding at a non-positive control step

	// Controller (HL04xx).
	CodeCtrlUnreachable = "HL0401" // FSM state unreachable from the reset state
	CodeCtrlWriteRace   = "HL0402" // two unguarded writes to one register in one state
	CodeCtrlGuardUnsat  = "HL0403" // guard set contains contradictory branch tags
	CodeCtrlNumbering   = "HL0404" // state numbering disagrees with its position
	CodeCtrlMuxSelect   = "HL0405" // action's mux select misses its source signal
	CodeCtrlActionStep  = "HL0406" // action issued in a state other than its scheduled step
	CodeCtrlMissing     = "HL0407" // scheduled node with no controller action

	// Netlist (HL05xx).
	CodeNetUndriven    = "HL0501" // declared wire used but never driven
	CodeNetMultiDriven = "HL0502" // signal driven by more than one source
	CodeNetWidth       = "HL0503" // assignment width mismatch
	CodeNetCombLoop    = "HL0504" // combinational cycle through assign statements
	CodeNetDupDecl     = "HL0505" // identifier declared twice (sanitize collision)
	CodeNetUndeclared  = "HL0506" // identifier used but never declared
	CodeNetOutput      = "HL0507" // output port never assigned
	CodeNetParse       = "HL0508" // construct the netlist parser cannot understand

	// Translation validation (HL06xx).
	CodeEquivDatapath  = "HL0601" // datapath symbolic value diverges from the DFG reference
	CodeEquivNetlist   = "HL0602" // netlist symbolic value diverges from the DFG reference
	CodeEquivRegister  = "HL0603" // cross-step operand not held by any register over its span
	CodeEquivStructure = "HL0604" // artifact defect blocks symbolic execution of a value

	// Static source invariants (HV00xx), reported by internal/vet /
	// cmd/hlsvet against the engine's own Go source rather than against
	// synthesized artifacts. Same registry discipline as the HL codes:
	// meanings are frozen, retirement leaves gaps.
	CodeVetHatchReason = "HV0001" // //hls: escape-hatch annotation carries no justification
	CodeVetMapOrder    = "HV0002" // map iteration order can reach synthesis results
	CodeVetWallClock   = "HV0011" // wall-clock read inside a deterministic package
	CodeVetGlobalRand  = "HV0012" // global math/rand state: results depend on process-wide seeding
	CodeVetCtxDropped  = "HV0021" // live context discarded for context.Background/TODO
	CodeVetCtxNoPoll   = "HV0022" // loop in an exported *Ctx entry point never polls cancellation
	CodeVetNoBoundary  = "HV0031" // facade/cmd entry point lacks a guard.Recover boundary
	CodeVetAllocOp     = "HV0041" // heap-allocating construct in a //hls:noalloc function
	CodeVetAllocCall   = "HV0042" // //hls:noalloc function calls an un-vetted callee
	CodeVetSharedMut   = "HV0051" // graph/library argument reaches a mutating position of a parallel entry point
	CodeVetForeignMut  = "HV0052" // function outside dfg/library mutates graph/library storage reached from a parameter
	CodeVetErrDropped  = "HV0061" // error result discarded in a determinism-critical package
	CodeVetErrShadow   = "HV0062" // short variable declaration shadows a live err in a determinism-critical package
)

// Docs is the code registry: every live code and its contract.
var Docs = map[string]string{
	CodeAnalyzerCrash: "an analyzer returned a hard error instead of diagnostics",

	CodeDFGEmptyName: "node with an empty output-signal name",
	CodeDFGUndefined: "dangling edge: argument names no input or node output",
	CodeDFGArity:     "operand count disagrees with the op table arity",
	CodeDFGCycle:     "the name-resolved dataflow relation has a cycle",
	CodeDFGDeadNode:  "node unreachable backwards from any declared output",
	CodeDFGCrossLink: "cached pred/succ links disagree with the Args relation",
	CodeDFGBadCycles: "non-positive per-node cycle count",
	CodeDFGBadLoop:   "malformed folded-loop node",
	CodeDFGDupName:   "two nodes (or a node and an input) share a name",

	CodeFrameMember:   "committed position outside its recorded move frame",
	CodeFrameBounds:   "recorded PF outside the independent ASAP/ALAP window",
	CodeSchedWindow:   "placement outside the independently recomputed time frame",
	CodeFrameMismatch: "recorded PF/RF/FF differ from the independent re-derivation",

	CodeSchedUnplaced:   "graph node with no placement",
	CodeSchedStepRange:  "placement (or its multicycle tail) outside 1..CS",
	CodeSchedBadSlot:    "non-positive FU index or empty FU type",
	CodeSchedPipeline:   "multicycle op exceeds the pipelining initiation interval",
	CodeSchedDepOrder:   "consumer starts before a producer completes",
	CodeSchedChain:      "intra-step combinational chain exceeds the clock period",
	CodeSchedFUConflict: "two non-exclusive ops collide on one FU instance",
	CodeSchedLimit:      "per-type instance count exceeds the user limit",

	CodeLiapProperties: "guiding function violates the theorem's grid properties",
	CodeLiapEnergy:     "recorded energy != V(position) on replay",
	CodeLiapDescent:    "non-decreasing V(X) step: a strictly lower-energy move-frame position was free",
	CodeLiapTie:        "degenerate (tied) energies along a replayed trajectory",
	CodeLiapCandidate:  "committed choice costs more than an evaluated alternative",
	CodeLiapReplay:     "recorded trajectory is not replayable on an empty grid",

	CodeRegOverlap:     "two lifetimes in one register overlap",
	CodeALUUnplaced:    "ALU binding references a node the schedule never placed",
	CodeMuxDupInput:    "duplicate signal in a multiplexer input list",
	CodeMuxUnknown:     "multiplexer input names no input, node output or constant",
	CodeALUDupBind:     "node bound to more than one ALU",
	CodeAllocUnbound:   "scheduled node with no ALU binding",
	CodeAllocStep:      "binding step disagrees with the schedule",
	CodeALUNoUnit:      "ALU instance with no library unit",
	CodeALUOpMismatch:  "bound operation not in its unit's capability set",
	CodeStyle2SelfLoop: "style-2 violation: data-dependent ops share an ALU",
	CodeALUBadStep:     "binding at a non-positive control step",

	CodeCtrlUnreachable: "FSM state unreachable from the reset state",
	CodeCtrlWriteRace:   "two unguarded writes to one register in one state",
	CodeCtrlGuardUnsat:  "guard set contains contradictory branch tags",
	CodeCtrlNumbering:   "state numbering disagrees with its position",
	CodeCtrlMuxSelect:   "action's mux select misses its source signal",
	CodeCtrlActionStep:  "action issued in a state other than its scheduled step",
	CodeCtrlMissing:     "scheduled node with no controller action",

	CodeNetUndriven:    "declared wire used but never driven",
	CodeNetMultiDriven: "signal driven by more than one source",
	CodeNetWidth:       "assignment width mismatch",
	CodeNetCombLoop:    "combinational cycle through assign statements",
	CodeNetDupDecl:     "identifier declared twice (sanitize collision)",
	CodeNetUndeclared:  "identifier used but never declared",
	CodeNetOutput:      "output port never assigned",
	CodeNetParse:       "construct the netlist parser cannot understand",

	CodeEquivDatapath:  "datapath symbolic value diverges from the DFG reference",
	CodeEquivNetlist:   "netlist symbolic value diverges from the DFG reference",
	CodeEquivRegister:  "cross-step operand not held by any register over its span",
	CodeEquivStructure: "artifact defect blocks symbolic execution of a value",

	CodeVetHatchReason: "//hls: escape-hatch annotation carries no justification",
	CodeVetMapOrder:    "map iteration order can reach synthesis results",
	CodeVetWallClock:   "wall-clock read inside a deterministic package",
	CodeVetGlobalRand:  "global math/rand state: results depend on process-wide seeding",
	CodeVetCtxDropped:  "live context discarded for context.Background/TODO",
	CodeVetCtxNoPoll:   "loop in an exported *Ctx entry point never polls cancellation",
	CodeVetNoBoundary:  "facade/cmd entry point lacks a guard.Recover boundary",
	CodeVetAllocOp:     "heap-allocating construct in a //hls:noalloc function",
	CodeVetAllocCall:   "//hls:noalloc function calls an un-vetted callee",
	CodeVetSharedMut:   "graph/library argument reaches a mutating position of a parallel entry point",
	CodeVetForeignMut:  "function outside dfg/library mutates graph/library storage reached from a parameter",
	CodeVetErrDropped:  "error result discarded in a determinism-critical package",
	CodeVetErrShadow:   "short variable declaration shadows a live err in a determinism-critical package",
}
