package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxStoredSpans caps the raw spans kept in memory per recorder; every
// span is still counted in the per-name aggregates.
const maxStoredSpans = 1 << 16

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started. Self is the duration minus the part of it covered by
// child spans.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// spanAgg sums every span of one name.
type spanAgg struct {
	Count   int64 `json:"count"`
	TotalNs int64 `json:"total_ns"`
	SelfNs  int64 `json:"self_ns"`
}

func (a *spanAgg) add(dur, self int64) {
	a.Count++
	a.TotalNs += dur
	a.SelfNs += self
}

// tracer records spans around the benchmark's calls into the program.
// Spans stay in memory and are written out when the run ends. While
// tracing is off every call is a no-op, so the untraced run pays one
// atomic load per call site.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	threads []*thread
	// remote holds spans recorded from goroutines the benchmark does not
	// own (timing wrappers the daemon calls); open[parent] collects
	// their intervals until the parent span ends.
	remote *thread
	open   map[uint64][][2]int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), open: make(map[uint64][][2]int64)}
	t.remote = &thread{t: t, agg: make(map[string]*spanAgg)}
	return t
}

func (t *tracer) enabled() bool { return t.on.Load() }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// thread returns a span stack for one goroutine.
func (t *tracer) thread() *thread {
	th := &thread{t: t, agg: make(map[string]*spanAgg)}
	t.mu.Lock()
	t.threads = append(t.threads, th)
	t.mu.Unlock()
	return th
}

// thread is one goroutine's span stack; it is not safe for concurrent
// use.
type thread struct {
	t     *tracer
	stack []frame
	agg   map[string]*spanAgg
	spans []span
	drop  int64
	// topNs sums the durations of the outermost spans: the part of the
	// thread's wall time the trace accounts for.
	topNs int64
}

type frame struct {
	id, parent, req uint64
	name            string
	start, child    int64
}

// begin opens a span. req ties the spans of one request together
// (0 = inherit the enclosing span's request).
func (th *thread) begin(name string, req uint64) uint64 {
	if !th.t.enabled() {
		return 0
	}
	var parent uint64
	if n := len(th.stack); n > 0 {
		parent = th.stack[n-1].id
		if req == 0 {
			req = th.stack[n-1].req
		}
	}
	id := th.t.nextID.Add(1)
	th.stack = append(th.stack, frame{id: id, parent: parent, req: req, name: name, start: th.t.now()})
	return id
}

// end closes the innermost open span.
func (th *thread) end() {
	n := len(th.stack)
	if n == 0 {
		return
	}
	f := th.stack[n-1]
	th.stack = th.stack[:n-1]
	end := th.t.now()
	dur := end - f.start
	child := f.child + th.t.remoteCover(f.id, f.start, end)
	self := dur - child
	if self < 0 {
		self = 0
	}
	if n > 1 {
		th.stack[n-2].child += dur
	} else {
		th.topNs += dur
	}
	th.keep(span{ID: f.id, Parent: f.parent, Req: f.req, Name: f.name, Start: f.start, End: end, Self: self})
}

func (th *thread) keep(s span) {
	a := th.agg[s.Name]
	if a == nil {
		a = &spanAgg{}
		th.agg[s.Name] = a
	}
	a.add(s.End-s.Start, s.Self)
	if len(th.spans) < maxStoredSpans {
		th.spans = append(th.spans, s)
	} else {
		th.drop++
	}
}

// record stores a span timed on a goroutine the benchmark does not own
// (a wrapper the daemon calls). parent is the benchmark span it ran
// under, or 0. Safe for concurrent use.
func (t *tracer) record(name string, parent, req uint64, start, end time.Time) {
	if !t.enabled() {
		return
	}
	s, e := int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent != 0 {
		t.open[parent] = append(t.open[parent], [2]int64{s, e})
	}
	t.remote.keep(span{ID: t.nextID.Add(1), Parent: parent, Req: req, Name: name, Start: s, End: e, Self: e - s})
}

// remoteCover returns how much of [start, end] the remote children of
// span id cover (their union, clipped to the parent), and forgets them.
func (t *tracer) remoteCover(id uint64, start, end int64) int64 {
	t.mu.Lock()
	iv := t.open[id]
	delete(t.open, id)
	t.mu.Unlock()
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, curS, curE int64 = 0, -1, -1
	for _, v := range iv {
		s, e := max(v[0], start), min(v[1], end)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return covered
}

// aggregates merges every recorder's per-name totals.
func (t *tracer) aggregates() map[string]spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]spanAgg)
	for _, th := range append(t.threads, t.remote) {
		for name, a := range th.agg {
			m := out[name]
			m.Count += a.Count
			m.TotalNs += a.TotalNs
			m.SelfNs += a.SelfNs
			out[name] = m
		}
	}
	return out
}

// layerSelf sums self time by layer (the span-name prefix before the
// first dot).
func (t *tracer) layerSelf() map[string]int64 {
	out := make(map[string]int64)
	for name, a := range t.aggregates() {
		layer, _, _ := strings.Cut(name, ".")
		out[layer] += a.SelfNs
	}
	return out
}

// spanCount is the number of spans recorded.
func (t *tracer) spanCount() int64 {
	var n int64
	for _, a := range t.aggregates() {
		n += a.Count
	}
	return n
}

// write dumps the aggregates and the stored spans as JSON lines.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	aggs := t.aggregates()
	t.mu.Lock()
	var dropped int64
	for _, th := range append(t.threads, t.remote) {
		dropped += th.drop
	}
	enc.Encode(map[string]any{"workload": workload, "seed": seed, "aggregates": aggs, "spans_not_stored": dropped})
	for _, th := range append(t.threads, t.remote) {
		for _, s := range th.spans {
			enc.Encode(s)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
