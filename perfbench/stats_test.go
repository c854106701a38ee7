package main

import "testing"

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		// p·n/100 whole: the rank is exactly p·n/100, never one above it.
		{10, 50, 5}, {10, 90, 9}, {10, 10, 1}, {10, 100, 10},
		{1000, 99.9, 999}, {1000, 99, 990}, {200, 99.5, 199},
		// p·n/100 fractional: round the rank up.
		{10, 55, 6}, {10, 1, 1}, {3, 50, 2}, {7, 50, 4},
		{1, 50, 1}, {1, 100, 1},
	} {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("percentile(1..%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
		wantV float64
	}{
		{11, 100.0 / 11, 1}, {20, 50, 10}, {100, 90, 90}, {156, 100 * 146.0 / 156, 146}, {1000, 99, 990},
	} {
		xs := seq(c.n)
		p, v, ok := tail(xs)
		if !ok || p != c.wantP || v != c.wantV {
			t.Errorf("tail(1..%d) = p%v %v %t, want p%v %v", c.n, p, v, ok, c.wantP, c.wantV)
			continue
		}
		beyond := 0
		for _, x := range xs {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("tail(1..%d): %d samples beyond it, want %d", c.n, beyond, tailBeyond)
		}
		// The tail is the nearest-rank percentile at its own p, and one
		// rank higher would leave fewer than ten samples beyond.
		if got := percentile(xs, p); got != v {
			t.Errorf("percentile(1..%d, %v) = %v, want the tail %v", c.n, p, got, v)
		}
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Error("tail of 10 samples: want none, since no rank has ten samples beyond it")
	}
}

func TestMedianLeavesInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2, 5, 4}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if xs[0] != 3 || xs[4] != 4 {
		t.Errorf("median sorted its input: %v", xs)
	}
}

func TestNearestPicksClosestTimes(t *testing.T) {
	at := []float64{0, 10, 20, 30, 40, 50}
	for _, c := range []struct {
		t        float64
		k        int
		wantLo   int
		wantHigh int
	}{
		{24, 3, 1, 4},  // 20, 30, then 10 (14 away) before 40 (16 away)
		{-5, 2, 0, 2},  // before the first: the first two
		{99, 3, 3, 6},  // after the last: the last three
		{25, 10, 0, 6}, // more than there are: all of them
	} {
		lo, hi := nearest(at, c.t, c.k)
		if lo != c.wantLo || hi != c.wantHigh {
			t.Errorf("nearest(%v, %d) = [%d, %d), want [%d, %d)", c.t, c.k, lo, hi, c.wantLo, c.wantHigh)
		}
	}
}

func TestOpSpeedsFollowLocalKernels(t *testing.T) {
	// Kernels every 10 ms for 4 s: at the reference time for the first
	// 2 s, then twice as slow.
	var units []calUnit
	for at := 5.0; at < 4000; at += 10 {
		ms := calRefMs
		if at > 2000 {
			ms *= 2
		}
		units = append(units, calUnit{at: at, ms: ms})
	}
	// Ops well inside a stretch read its speed. The op spanning 1-3 s has
	// as many kernels on each side of the switch and reads the lower
	// nearest-rank median, a fast one.
	start := []float64{500, 3500, 1000}
	lat := []float64{3, 3, 2000}
	want := []float64{1, 0.5, 1}
	got := opSpeeds(start, lat, units)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("op %d (start %v, %v ms): speed %v, want %v", i, start[i], lat[i], got[i], want[i])
		}
	}
	// With fewer than calNearest kernels within calWindowMs of an op,
	// the nearest ones count: here all three, two of them slow.
	sparse := []calUnit{{at: 0, ms: calRefMs}, {at: 5000, ms: 2 * calRefMs}, {at: 10000, ms: 2 * calRefMs}}
	if got := opSpeeds([]float64{9000}, []float64{3}, sparse); got[0] != 0.5 {
		t.Errorf("op among sparse kernels: speed %v, want 0.5", got[0])
	}
}
