package core_test

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/emit"
	"repro/internal/gen"
)

// TestCrossProcessTraceDeterminism is the runtime complement of the
// hlsvet maporder/noclock analyzers: it proves that two separate
// processes synthesizing the same generated 1000-node graph produce
// byte-identical results — placements, the full move trace, the cost
// report, and the emitted netlist. Go randomizes map iteration order
// per process, so any order-dependent fold that slipped past the
// static suite shows up here as a fingerprint mismatch.
//
// The test re-execs its own binary twice in child mode (gated by
// HLS_DET_CHILD) so the two syntheses really run under independent
// map-hash seeds rather than in one process.
func TestCrossProcessTraceDeterminism(t *testing.T) {
	if out := os.Getenv("HLS_DET_OUT"); os.Getenv("HLS_DET_CHILD") == "1" {
		fp, err := synthesisFingerprint()
		if err != nil {
			t.Fatalf("child synthesis: %v", err)
		}
		if err := os.WriteFile(out, fp, 0o666); err != nil {
			t.Fatalf("child write: %v", err)
		}
		return
	}
	if testing.Short() {
		t.Skip("re-exec determinism test skipped in -short mode")
	}

	dir := t.TempDir()
	outs := make([][]byte, 2)
	for i := range outs {
		out := filepath.Join(dir, fmt.Sprintf("fp%d", i))
		cmd := exec.Command(os.Args[0], "-test.run=^TestCrossProcessTraceDeterminism$", "-test.count=1")
		cmd.Env = append(os.Environ(), "HLS_DET_CHILD=1", "HLS_DET_OUT="+out)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child %d failed: %v\n%s", i, err, msg)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatalf("child %d wrote no fingerprint: %v", i, err)
		}
		if len(data) == 0 {
			t.Fatalf("child %d fingerprint is empty", i)
		}
		outs[i] = data
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Fatalf("two processes synthesized different results from the same input\n"+
			"fingerprints differ: %d vs %d bytes — a map-order or clock dependency reached the synthesis path",
			len(outs[0]), len(outs[1]))
	}
}

// synthesisFingerprint runs one full 1000-node synthesis and renders
// every externally observable artifact into a canonical byte string.
func synthesisFingerprint() ([]byte, error) {
	g, err := gen.Generate(gen.Config{Nodes: 1000, Seed: 42})
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	cs := g.CriticalPathCycles() + 16
	d, err := core.Synthesize(g, core.Config{CS: cs})
	if err != nil {
		return nil, fmt.Errorf("synthesize (CS=%d): %w", cs, err)
	}

	var b bytes.Buffer
	fmt.Fprintf(&b, "cs=%d nodes=%d\n", d.Schedule.CS, d.Graph.Len())

	for _, n := range d.Graph.Nodes() {
		if p, ok := d.Schedule.At(n.ID); ok {
			fmt.Fprintf(&b, "place %d: step=%d type=%s idx=%d\n", n.ID, p.Step, p.Type, p.Index)
		}
	}

	if tr := d.Schedule.Trace; tr != nil {
		fmt.Fprintf(&b, "trace steps=%d\n", len(tr.Steps))
		for i, s := range tr.Steps {
			fmt.Fprintf(&b, "step %d: node=%d type=%s pos=%v energy=%v curj=%d maxj=%d cands=%d\n",
				i, s.Node, s.Type, s.Pos, s.Energy, s.CurrentJ, s.MaxJ, len(s.Candidates))
			for j, c := range s.Candidates {
				fmt.Fprintf(&b, "  cand %d: %+v\n", j, c)
			}
		}
	} else {
		fmt.Fprintf(&b, "trace nil\n")
	}

	fmt.Fprintf(&b, "cost %+v\n", d.Cost)
	b.WriteString(emit.Verilog(d.Graph, d.Schedule, d.Datapath, d.Controller))
	return b.Bytes(), nil
}
