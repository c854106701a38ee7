package experiments

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// measureSmallScale runs the cheapest possible ladder (the 1k rung);
// the full ladder lives behind the `scale` build tag.
func measureSmallScale(t *testing.T) *Snapshot {
	t.Helper()
	s, err := MeasureScaleCtx(context.Background(), 1_000)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMeasureScaleSmallLadder(t *testing.T) {
	s := measureSmallScale(t)
	if s.SchemaVersion != schemaVersion || s.Mode != "scale" || s.Env.GOMAXPROCS <= 0 {
		t.Fatalf("header = %+v", s)
	}
	if v := metric(t, s, "ladder/max_nodes").Value; v != 1_000 {
		t.Errorf("max_nodes = %v", v)
	}
	for _, m := range s.Metrics {
		if strings.HasPrefix(m.Name, "rand5k/") {
			t.Errorf("%s measured under the 1k cap", m.Name)
		}
	}
	if v := metric(t, s, "rand1k/nodes").Value; v != 1_000 {
		t.Errorf("rand1k nodes = %v", v)
	}
	for _, name := range []string{"rand1k/cs", "rand1k/wall", "rand1k/ns_per_node", "rand1k/alloc"} {
		if v := metric(t, s, name).Value; v <= 0 {
			t.Errorf("implausible %s = %v", name, v)
		}
	}
	if m := metric(t, s, "rand1k/candidates"); !m.Exact || m.Value <= 0 {
		t.Errorf("rand1k/candidates = %+v, want an exact positive count", m)
	}
}

func TestMeasureScaleCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := MeasureScaleCtx(ctx, 1_000); err == nil {
		t.Error("pre-cancelled context accepted")
	}
}

func TestScaleBaselineRoundTrip(t *testing.T) {
	s := measureSmallScale(t)
	path := filepath.Join(t.TempDir(), "BENCH_scale.json")
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(path, "scale")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Errorf("round trip changed the snapshot:\n got %+v\nwant %+v", got, s)
	}
}
