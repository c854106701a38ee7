package lint_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/benchmarks"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/lint"
)

// synthUnit synthesizes one benchmark end to end at its tightest time
// constraint and wraps every artifact for certification.
func synthUnit(t *testing.T, ex *benchmarks.Example) *lint.Unit {
	t.Helper()
	cfg := core.Config{CS: ex.TimeConstraints[0], ClockNs: ex.ClockNs}
	d, err := core.Synthesize(ex.Graph, cfg)
	if err != nil {
		t.Fatalf("%s: %v", ex.Name, err)
	}
	return d.LintUnit()
}

func certify(t *testing.T, u *lint.Unit) *lint.Certificate {
	t.Helper()
	cert, err := lint.Certify(context.Background(), u)
	if err != nil {
		t.Fatalf("certify: %v", err)
	}
	return cert
}

// TestCertifyCleanBenchmarks is the positive half of the soundness
// argument: every paper benchmark, synthesized in both datapath styles,
// must come back certified on every layer, with the concrete N-seed
// cross-check backing the symbolic proof.
func TestCertifyCleanBenchmarks(t *testing.T) {
	for _, ex := range benchmarks.All() {
		for _, style := range []int{1, 2} {
			cfg := core.Config{CS: ex.TimeConstraints[0], ClockNs: ex.ClockNs, Style: style}
			d, err := core.Synthesize(ex.Graph, cfg)
			if err != nil {
				t.Fatalf("%s style %d: %v", ex.Name, style, err)
			}
			cert, err := d.Certify()
			if err != nil {
				t.Fatalf("%s style %d: %v", ex.Name, style, err)
			}
			if cert.Status != "certified" {
				t.Errorf("%s style %d: status %q, diagnostics:\n%s",
					ex.Name, style, cert.Status, format(cert.Diagnostics))
			}
			if !strings.HasPrefix(cert.CrossCheck, "pass") {
				t.Errorf("%s style %d: cross-check %q", ex.Name, style, cert.CrossCheck)
			}
			for _, p := range cert.Outputs {
				if p.Datapath != "equal" || (p.Netlist != "equal" && p.Netlist != "skipped") {
					t.Errorf("%s style %d: output %q proof = %+v", ex.Name, style, p.Output, p)
				}
			}
		}
	}
}

// TestCertifySkipsWithoutDatapath asserts an MFS-only unit is reported
// "skipped", not silently certified.
func TestCertifySkipsWithoutDatapath(t *testing.T) {
	cert := certify(t, mfsUnit(t))
	if cert.Status != "skipped" || len(cert.Diagnostics) != 0 {
		t.Fatalf("status %q with %d diagnostics, want clean skip", cert.Status, len(cert.Diagnostics))
	}
}

// mutationExpectations maps each registered corruption to the
// diagnostic codes that legitimately catch it. A mutation may surface
// as a root divergence or as the structural defect that blocks the walk
// before the divergence forms; both refute the certificate.
var mutationExpectations = map[string][]string{
	"commute-sub":   {diag.CodeEquivNetlist},
	"drop-register": {diag.CodeEquivRegister},
	"rebind-alu":    {diag.CodeEquivDatapath, diag.CodeEquivStructure, diag.CodeEquivRegister},
	"shift-action":  {diag.CodeEquivStructure, diag.CodeEquivDatapath, diag.CodeEquivRegister},
	"swap-mux":      {diag.CodeEquivDatapath, diag.CodeEquivStructure, diag.CodeEquivRegister},
}

// TestMutationHarness is the negative half of the soundness argument:
// seeded corruptions of real synthesis bugs — a swapped multiplexer
// input, an operation issued one step late, a deallocated register, an
// action bound to the wrong ALU, commuted subtraction operands in the
// netlist — must each be refused certification on every benchmark whose
// structure exposes the seam, with a typed diagnostic from the expected
// class and a concrete counterexample witness.
func TestMutationHarness(t *testing.T) {
	exs := benchmarks.All()
	if testing.Short() {
		exs = exs[:2]
	}
	for _, m := range lint.Mutations() {
		expect, ok := mutationExpectations[m.Name]
		if !ok {
			t.Fatalf("mutation %q has no expectation entry", m.Name)
		}
		applied := 0
		t.Run(m.Name, func(t *testing.T) {
			for _, ex := range exs {
				u := synthUnit(t, ex) // fresh unit: mutations corrupt in place
				if err := m.Apply(u); err != nil {
					t.Logf("%s: not applicable: %v", ex.Name, err)
					continue
				}
				applied++
				cert := certify(t, u)
				if cert.Status != "refuted" {
					t.Errorf("%s: %s not caught (status %q)", ex.Name, m.Name, cert.Status)
					continue
				}
				if !hasAnyCode(cert.Diagnostics, expect) {
					t.Errorf("%s: %s caught with unexpected codes:\n%s",
						ex.Name, m.Name, format(cert.Diagnostics))
				}
				if !hasCounterexample(cert.Diagnostics) {
					t.Errorf("%s: %s refuted without a concrete counterexample:\n%s",
						ex.Name, m.Name, format(cert.Diagnostics))
				}
				// The simulator executes schedule and datapath, so a
				// datapath-level corruption must also be confirmed
				// concretely, not just symbolically.
				if m.Name == "drop-register" && !hasSimConfirmed(cert.Diagnostics) {
					t.Errorf("%s: %s counterexample not simulator-confirmed:\n%s",
						ex.Name, m.Name, format(cert.Diagnostics))
				}
			}
			if min := 3; !testing.Short() && applied < min {
				t.Errorf("%s applied to only %d benchmarks, want >= %d", m.Name, applied, min)
			}
		})
	}
}

func hasAnyCode(ds diag.List, codes []string) bool {
	for _, c := range codes {
		if hasCode(ds, c) {
			return true
		}
	}
	return false
}

func hasCounterexample(ds diag.List) bool {
	for _, d := range ds {
		if d.Counterexample != nil {
			return true
		}
	}
	return false
}

func hasSimConfirmed(ds diag.List) bool {
	for _, d := range ds {
		if d.Counterexample != nil && d.Counterexample.SimConfirmed {
			return true
		}
	}
	return false
}

// TestSweepPointsCertify re-synthesizes every design point of a
// cost/time sweep and certifies each one: the whole trade-off curve a
// user would explore is translation-validated, not just the committed
// constraint.
func TestSweepPointsCertify(t *testing.T) {
	ex := benchmarks.Facet()
	points, err := core.Sweep(ex.Graph, core.Config{}, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("empty sweep")
	}
	for _, p := range points {
		d, err := core.Synthesize(ex.Graph, core.Config{CS: p.CS})
		if err != nil {
			t.Fatalf("cs=%d: %v", p.CS, err)
		}
		cert, err := d.Certify()
		if err != nil {
			t.Fatalf("cs=%d: %v", p.CS, err)
		}
		if cert.Status != "certified" {
			t.Errorf("cs=%d: status %q:\n%s", p.CS, cert.Status, format(cert.Diagnostics))
		}
	}
}

// TestCertifyEWFBudget bounds the pass on the largest benchmark: the
// elliptic wave filter (34 operations, 17 control steps) must certify
// well inside the 2-second budget the ISSUE sets.
func TestCertifyEWFBudget(t *testing.T) {
	ex := benchmarks.EWF()
	u := synthUnit(t, ex)
	start := time.Now()
	cert := certify(t, u)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("EWF certification took %v, budget 2s", elapsed)
	}
	if cert.Status != "certified" {
		t.Errorf("EWF: status %q:\n%s", cert.Status, format(cert.Diagnostics))
	}
}

// TestCertifyCancellation asserts a cancelled certification returns
// promptly with the context's error instead of finishing the proof.
func TestCertifyCancellation(t *testing.T) {
	u := synthUnit(t, benchmarks.EWF())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := lint.Certify(ctx, u)
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("cancelled certify returned after %v, want < 100ms", elapsed)
	}
	if err != context.Canceled {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

// TestMutationRegistry pins the registry's shape: sorted, documented,
// and closed under ApplyMutation's name lookup.
func TestMutationRegistry(t *testing.T) {
	ms := lint.Mutations()
	if len(ms) < 5 {
		t.Fatalf("%d mutations registered, want >= 5", len(ms))
	}
	for i, m := range ms {
		if m.Doc == "" || m.Apply == nil {
			t.Errorf("mutation %q lacks doc or apply", m.Name)
		}
		if i > 0 && ms[i-1].Name >= m.Name {
			t.Errorf("registry not sorted: %q before %q", ms[i-1].Name, m.Name)
		}
	}
	if err := lint.ApplyMutation(&lint.Unit{}, "no-such-mutation"); err == nil {
		t.Error("unknown mutation name did not error")
	}
}

// TestCertifyRefutesEditedArgs edits one node's public Args after
// synthesis, leaving the graph's signal ids as they were: the reference
// layer reads the names and the datapath and netlist layers the ids, so
// the pass must refuse every such design rather than certify the ids
// alone.
func TestCertifyRefutesEditedArgs(t *testing.T) {
	for _, ex := range benchmarks.All() {
		u := synthUnit(t, ex)
		edited := ""
		for _, n := range u.Graph.Nodes() {
			for _, in := range u.Graph.Inputs() {
				if len(n.Args) == 2 && n.Args[0] != in && n.Args[1] != in && edited == "" {
					edited = n.Name + ": " + n.Args[0] + " -> " + in
					n.Args[0] = in
				}
			}
		}
		if edited == "" {
			t.Fatalf("%s: no binary node to edit", ex.Name)
		}
		cert := certify(t, u)
		diverged := false
		for _, p := range cert.Outputs {
			diverged = diverged || p.Datapath == "diverges"
		}
		if cert.Status != "refuted" || !diverged {
			t.Errorf("%s (%s): status %q, outputs %+v", ex.Name, edited, cert.Status, cert.Outputs)
		}
	}
}
