package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestSeedFixesInputs pins that a seed yields a byte-identical input set
// and request stream, and that another seed yields another one.
func TestSeedFixesInputs(t *testing.T) {
	ctx := context.Background()
	inputSets := map[string]func(seed int64) ([32]byte, error){
		"scale": func(seed int64) ([32]byte, error) {
			ds, err := scaleInputs(seed)
			if err != nil {
				return [32]byte{}, err
			}
			return hashGraphs(ds)
		},
		"paper": func(seed int64) ([32]byte, error) {
			jobs, err := paperJobs(ctx, seed)
			if err != nil {
				return [32]byte{}, err
			}
			return hashJobs(jobs), nil
		},
		"serve": func(seed int64) ([32]byte, error) {
			b, err := serveInputs(seed, 3)
			if err != nil {
				return [32]byte{}, err
			}
			return b.hash, nil
		},
	}
	for name, build := range inputSets {
		var h [3][32]byte
		for i, seed := range []int64{1, 1, 2} {
			var err error
			if h[i], err = build(seed); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
		}
		if h[0] != h[1] {
			t.Errorf("%s: seed 1 built two different input sets", name)
		}
		if h[0] == h[2] {
			t.Errorf("%s: seeds 1 and 2 built the same input set", name)
		}
	}
}

// runJSON runs the benchmark in process and returns its result line.
func runJSON(t *testing.T, args ...string) *result {
	t.Helper()
	var out, errs bytes.Buffer
	if code := run(context.Background(), args, &out, &errs); code != 0 {
		t.Fatalf("%v: exit %d\n%s%s", args, code, out.String(), errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line: %v", args, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%v: correct %t, %d of %d ops failed", args, res.Correct, res.Failed, res.Attempted)
	}
	return &res
}

// TestExactMetricsRepeat runs every workload twice on one seed, in both
// modes, and requires the exact metrics to repeat; a held-out seed must
// run clean as well.
func TestExactMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload five times")
	}
	seconds := map[string]string{"scale": "1", "paper": "3", "serve": "1"}
	for _, w := range workloads {
		args := func(seed int64, trace int) []string {
			return []string{"--workload", w.name, "--seed", fmt.Sprint(seed), "--seconds", seconds[w.name],
				"--trace", fmt.Sprint(trace), "--spans", t.TempDir()}
		}
		a, b := runJSON(t, args(1, 0)...), runJSON(t, args(1, 0)...)
		if a.Metrics["qor_area_per_node"] != b.Metrics["qor_area_per_node"] {
			t.Errorf("%s: qor_area_per_node %v then %v", w.name, a.Metrics["qor_area_per_node"], b.Metrics["qor_area_per_node"])
		}
		ta, tb := runJSON(t, args(1, 1)...), runJSON(t, args(1, 1)...)
		for _, m := range []string{"serve.hit_ratio", "mfsa.nodes_per_op", "emit.netlist_kb_per_op"} {
			if ta.Metrics[m] != tb.Metrics[m] {
				t.Errorf("%s: %s %v then %v", w.name, m, ta.Metrics[m], tb.Metrics[m])
			}
		}
		if w.name == "serve" && ta.Metrics["serve.hit_ratio"].Value <= 0 {
			t.Errorf("serve: hit ratio %v", ta.Metrics["serve.hit_ratio"])
		}
		runJSON(t, args(2, 0)...)
	}
}
