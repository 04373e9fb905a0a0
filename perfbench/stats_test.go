package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 1.75}, {0.5, 2.5}, {0.99, 3.97}, {1, 4}, {-1, 1}, {2, 4},
	} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one = %v, want 7", got)
	}
}

func TestMedianDoesNotReorder(t *testing.T) {
	xs := []float64{5, 1, 3}
	if got := median(xs); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Fatalf("median reordered its input: %v", xs)
	}
}

func TestBeyond(t *testing.T) {
	xs := []float64{1, 2, 2, 3, 4}
	for _, c := range []struct {
		v    float64
		want int
	}{{0, 5}, {2, 2}, {3.5, 1}, {4, 0}} {
		if got := beyond(xs, c.v); got != c.want {
			t.Errorf("beyond(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBlockSummary(t *testing.T) {
	// Connection a: three blocks, block i holding i*1000+1 .. i*1000+1000,
	// so its p50 is i*1000+500.5 and its p99 i*1000+990.01; a ragged tail
	// of 10 samples counts only in the pooled figures. Connection b: one
	// block with a single huge stall sample.
	var a, b []float64
	for i := 0; i < 3; i++ {
		for j := 1; j <= blockLen; j++ {
			a = append(a, float64(i*1000+j))
		}
	}
	for j := 0; j < 10; j++ {
		a = append(a, 1e6)
	}
	for j := 1; j <= blockLen; j++ {
		b = append(b, float64(1000+j))
	}
	b[7] = 1e9
	s := summarize(a, b)
	if s.N != 4*blockLen+10 || s.Blocks != 4 {
		t.Fatalf("N=%d Blocks=%d", s.N, s.Blocks)
	}
	// Block p50s: 500.5, 1500.5, 2500.5 and (b) 1501.5 → median 1501.
	if !near(s.P50, 1501) {
		t.Errorf("median-of-block p50 = %v, want 1501", s.P50)
	}
	// Block p99s: 990.01, 1990.01, 2990.01 and b's 1991.01 (the stall
	// displaces one sample below it); the median of the four is 1990.51.
	if !near(s.P99, 1990.51) {
		t.Errorf("median-of-block p99 = %v, want 1990.51", s.P99)
	}
	if s.Beyond99 < 10 || s.AllP99 < 2900 {
		t.Errorf("pooled p99 %v with %d beyond", s.AllP99, s.Beyond99)
	}
	if z := summarize(); z.N != 0 || z.P99 != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}
