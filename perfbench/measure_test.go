package main

import (
	"testing"
	"time"
)

// TestTail checks the tail rule: the 11th-largest sample, capped at
// tailCap, never below the median.
func TestTail(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantPct float64
		wantUs  float64
	}{
		{n: 5, wantPct: 50, wantUs: 3},
		{n: 20, wantPct: 50, wantUs: 10.5},
		{n: 101, wantPct: 90, wantUs: 91},
		{n: 1000, wantPct: tailCap, wantUs: 950.05},
	} {
		var l latencies
		for i := 1; i <= tc.n; i++ {
			l.add(time.Duration(i) * time.Microsecond)
		}
		pct, us := l.tail()
		if pct != tc.wantPct || us < tc.wantUs-1e-6 || us > tc.wantUs+1e-6 {
			t.Errorf("n=%d: tail p%g = %g us, want p%g = %g us", tc.n, pct, us, tc.wantPct, tc.wantUs)
		}
	}
}
