package main

import (
	"fmt"
	"runtime/metrics"
	"time"

	"camus/internal/stats"
)

// latencies accumulates one timing distribution.
type latencies struct{ s stats.Sample }

func (l *latencies) add(d time.Duration) { l.s.AddDuration(d) }

func (l *latencies) n() int { return l.s.N() }

// p50us returns the median in microseconds.
func (l *latencies) p50us() float64 { return l.s.Percentile(50) / 1e3 }

// tailCap is the highest percentile a tail is reported at. On a shared
// 2-vCPU host the p99 of a run is set by stalls of the host, not of the
// program: over three churn runs in one hour, the p99 of publications
// read 0.5–3.2 ms while their p95 read 0.35–0.40 ms.
const tailCap = 95

// tail returns the highest percentile with at least ten samples beyond
// it, capped at tailCap, and its value in microseconds. The 11th-largest
// sample sits at percentile 100(n-11)/(n-1); with fewer than 21 samples
// that is at or below the median, and the median is returned.
func (l *latencies) tail() (pct, us float64) {
	n := float64(l.s.N())
	pct = max(50, min(tailCap, 100*(n-11)/(n-1)))
	return pct, l.s.Percentile(pct) / 1e3
}

// describe renders a distribution in microseconds for the report lines.
func (l *latencies) describe(name string) string {
	pct, us := l.tail()
	return fmt.Sprintf("%s: p50 %.4g us, tail p%.1f %.4g us, n=%d", name, l.p50us(), pct, us, l.n())
}

// median of a sample (0 when empty).
func median(xs []float64) float64 {
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	return s.Percentile(50)
}

// runtime/metrics names read by the benchmark.
const (
	heapObjectsBytes = "/memory/classes/heap/objects:bytes"
	allocObjects     = "/gc/heap/allocs:objects"
	allocBytes       = "/gc/heap/allocs:bytes"
)

// heapPeak tracks the highest Go heap in use seen by its samples. Each
// load thread owns one; merge them with max.
type heapPeak struct {
	buf  [1]metrics.Sample
	peak uint64
}

func newHeapPeak() *heapPeak {
	h := &heapPeak{}
	h.buf[0].Name = heapObjectsBytes
	return h
}

// sample reads the heap once and keeps the maximum.
func (h *heapPeak) sample() {
	metrics.Read(h.buf[:])
	if v := h.buf[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *heapPeak) mb() float64 { return float64(h.peak) / (1 << 20) }

// allocCounter reads the cumulative heap allocation counters.
type allocCounter struct{ buf [2]metrics.Sample }

func newAllocCounter() *allocCounter {
	a := &allocCounter{}
	a.buf[0].Name = allocObjects
	a.buf[1].Name = allocBytes
	return a
}

// read returns cumulative (objects, bytes) allocated on the heap.
func (a *allocCounter) read() (objects, bytes uint64) {
	metrics.Read(a.buf[:])
	return a.buf[0].Value.Uint64(), a.buf[1].Value.Uint64()
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
