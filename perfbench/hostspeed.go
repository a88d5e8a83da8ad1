package main

import (
	"fmt"
	"syscall"
	"time"
	"unsafe"
)

// hostSpeed measures how fast the host runs at the moment, with a fixed
// loop that uses no repository code: dependent random reads over a table
// kept outside the Go heap, mixed with string-keyed map lookups. Each
// sample first sweeps a buffer twice the size of a core's cache, untimed,
// so the loop starts from the same cache state whatever ran before it. On a
// shared host the speed of the same program drifts with its neighbours'
// load by a third within minutes (itch-feed read 0.29 Mpps on one seed
// and 0.22 Mpps four minutes later), and the loop, run between the
// program's calls, drifts with it. The end-to-end times are reported at
// the reference speed hostRef: a rate divided by factor(), a duration
// multiplied by it. The raw figures are printed in the report lines.
//
// The loop runs between the program's calls, never inside a timed one,
// and what it computes does not depend on the program. It shares the
// memory system with the program's goroutines, but making every timed
// itch-feed batch write 8 MiB moved the factor by under 3% (METRICS.md).
type hostSpeed struct {
	tab   []uint64
	sweep []uint64
	keys  []string
	m     map[string]uint64
	x     uint64
	last  time.Time
	// speeds holds the loop steps per second of each sample since the
	// last reset.
	speeds []float64
}

const (
	// hostTable is the size in bytes of the table and of the sweep
	// buffer: twice a core's own cache (2 MiB L2 on the host the
	// benchmark was written on), so the loop feels the shared cache and
	// memory the way the program does.
	hostTable = 4 << 20
	// hostSteps is the loop length of one sample (about 1 ms).
	hostSteps = 4000
	// hostEvery is the least wall time between two samples taken during
	// load, so the loop costs a few percent of a run.
	hostEvery = 16 * time.Millisecond
	// hostRef is the reference speed in loop steps per second, about
	// what a 2-vCPU Xeon VM gives when its neighbours are quiet.
	hostRef = 4e6
	// setupSamples is the number of samples taken just before and just
	// after each set-up.
	setupSamples = 16
)

func newHostSpeed() (*hostSpeed, error) {
	mem, err := syscall.Mmap(-1, 0, 2*hostTable, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("host speed table: %v", err)
	}
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&mem[0])), 2*hostTable/8)
	h := &hostSpeed{
		tab:   words[:hostTable/8],
		sweep: words[hostTable/8:],
		m:     make(map[string]uint64, 4096),
		x:     1,
	}
	for i := range words {
		words[i] = uint64(i) * 2654435761
	}
	for i := 0; i < 4096; i++ {
		k := fmt.Sprintf("S%04d.key", i)
		h.keys = append(h.keys, k)
		h.m[k] = uint64(i)
	}
	return h, nil
}

// sample runs the loop once and accounts its speed. It returns the
// wall time it took, sweep included.
func (h *hostSpeed) sample() time.Duration {
	start := time.Now()
	x := h.x
	for i := 0; i < len(h.sweep); i += 8 {
		x += h.sweep[i]
	}
	t0 := time.Now()
	for i := 0; i < hostSteps; i++ {
		x = x*6364136223846793005 + h.tab[x>>45]
		if i&3 == 0 {
			x += h.m[h.keys[x>>52]]
		}
	}
	h.x = x
	h.last = time.Now()
	h.speeds = append(h.speeds, hostSteps/h.last.Sub(t0).Seconds())
	return h.last.Sub(start)
}

// samples runs n samples.
func (h *hostSpeed) samples(n int) {
	for i := 0; i < n; i++ {
		h.sample()
	}
}

// due reports whether hostEvery has passed since the last sample.
func (h *hostSpeed) due() bool { return time.Since(h.last) >= hostEvery }

// reset starts a new measurement with one sample.
func (h *hostSpeed) reset() {
	h.speeds = h.speeds[:0]
	h.sample()
}

// factor is the median sample speed relative to hostRef. Like the
// program's figures, it is a median, so a stall that hits a few samples
// does not move it.
func (h *hostSpeed) factor() float64 { return median(h.speeds) / hostRef }
