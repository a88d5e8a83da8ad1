package pipeline

import (
	"sync"
	"time"

	"camus/internal/compiler"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// shard is one worker's private slice of the dataplane: a flow-cache
// partition, a leaf-cache partition, a stats block, and the reusable
// hot-path workspaces. Sharding follows the cache-aware per-core
// partitioning pattern from software packet-forwarding literature:
// each worker touches only its own mutable state on the hot path, so
// workers never contend on the caches.
//
// Shards are individually heap-allocated (the Switch holds pointers),
// so two shards' counters never share a cache line.
type shard struct {
	// mu guards every field below. Per-shard rather than per-switch: in
	// the batch path exactly one worker owns the shard and the lock is
	// uncontended; it exists so that direct Process calls from
	// arbitrary goroutines that hash onto the same shard stay correct.
	mu    sync.Mutex
	stats StatsSnapshot
	flows *flowCache
	leaf  *leafCache // nil when the leaf cache is disabled
	scr   procScratch

	// ProcessBatch output arenas, reset at the start of each batch run
	// on this shard. Handed-out delivery slices stay valid until the
	// next ProcessBatch call on the switch (growth abandons the old
	// chunk to the slices already pointing into it, so it never
	// invalidates results mid-batch).
	delArena arena[Delivery]
	msgArena arena[*spec.Message]
}

// procScratch is a shard's reusable ingress workspace: the per-port
// message buckets that replace the historical per-packet
// map[int][]*spec.Message, plus the leaf-cache probe key. Buckets are
// a linear-scanned slice because egress ports are few per packet and
// may be negative (e.g. routing's UpPort), ruling out dense indexing.
type procScratch struct {
	buckets []portBucket
	n       int
	key     leafKey
}

type portBucket struct {
	port int
	msgs []*spec.Message
}

func (p *procScratch) reset() { p.n = 0 }

// add appends m to port's bucket, reusing retired bucket capacity.
func (p *procScratch) add(port int, m *spec.Message) {
	for i := 0; i < p.n; i++ {
		if p.buckets[i].port == port {
			p.buckets[i].msgs = append(p.buckets[i].msgs, m)
			return
		}
	}
	if p.n < len(p.buckets) {
		b := &p.buckets[p.n]
		b.port = port
		b.msgs = append(b.msgs[:0], m)
	} else {
		p.buckets = append(p.buckets, portBucket{port: port, msgs: []*spec.Message{m}})
	}
	p.n++
}

// sort orders buckets[:n] by port (insertion sort: n is tiny, and
// sort.Slice's closure would allocate).
func (p *procScratch) sort() {
	b := p.buckets[:p.n]
	for i := 1; i < len(b); i++ {
		for j := i; j > 0 && b[j].port < b[j-1].port; j-- {
			b[j], b[j-1] = b[j-1], b[j]
		}
	}
}

// arena hands out capacity-clamped subslices of a chunked backing
// buffer. When a chunk fills, a fresh one is allocated and the old one
// is abandoned to the slices already handed out — growth never moves
// published results, and once the chunk matches the working set the
// steady state allocates nothing.
type arena[T any] struct {
	buf  []T
	used int
}

func (a *arena[T]) reset() { a.used = 0 }

func (a *arena[T]) alloc(n int) []T {
	if a.buf == nil || a.used+n > len(a.buf) {
		size := 2 * len(a.buf)
		if size < 1024 {
			size = 1024
		}
		for size < n {
			size *= 2
		}
		a.buf = make([]T, size)
		a.used = 0
	}
	s := a.buf[a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

// shardIndex maps a flow to its home shard. The mapping is pure, so a
// stream's continuation packets always land on the shard holding its
// cached decision, no matter which goroutine or batch carries them.
// Flow-less packets (Flow == 0) have no cached state and default to
// shard 0; ProcessBatch spreads them round-robin instead.
func (s *Switch) shardIndex(flow FlowKey) int {
	if len(s.shards) == 1 || flow == 0 {
		return 0
	}
	// Fibonacci hashing spreads adjacent flow keys across shards.
	h := uint64(flow) * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(len(s.shards)))
}

// cachedFlows reports the total number of live flow-cache entries
// across shards (diagnostics, tests).
func (s *Switch) cachedFlows() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += sh.flows.size()
		sh.mu.Unlock()
	}
	return n
}

// batchScratch is the switch-level reusable ProcessBatch workspace:
// the result index and the per-shard partition lists. Guarded by its
// own mutex so concurrent ProcessBatch callers fall back to private
// allocations instead of serializing.
type batchScratch struct {
	mu     sync.Mutex
	out    [][]Delivery
	assign [][]int32
}

// ProcessBatch runs a batch of packets through the dataplane at virtual
// time now and returns each packet's deliveries, indexed like pkts.
//
// Packets are partitioned across the switch's worker shards: packets
// with a flow identity go to the flow's home shard (preserving
// per-stream ordering and cache locality), flow-less packets are spread
// round-robin. Each worker runs its share in input order through the
// same per-packet walk as Process, so per-packet results are identical
// to calling Process; only the output memory differs. Once the shard
// arenas have grown to the working set, a batch without stream
// (flow-keyed) header packets or custom actions allocates nothing.
//
// Reuse contract: the returned slice and the deliveries live in
// per-switch buffers that are recycled by the *next* ProcessBatch call
// from any goroutine — results are valid until then. Concurrent
// ProcessBatch calls are safe (internal state is locked), but a caller
// that must read results while other goroutines may batch on the same
// switch should copy them first or publish via Process, whose results
// are always heap-fresh.
func (s *Switch) ProcessBatch(pkts []*Packet, now time.Duration) [][]Delivery {
	bs := &s.batch
	var out [][]Delivery
	locked := bs.mu.TryLock()
	if locked {
		defer bs.mu.Unlock()
		if cap(bs.out) < len(pkts) {
			bs.out = make([][]Delivery, len(pkts))
		}
		out = bs.out[:len(pkts)]
		for i := range out {
			out[i] = nil
		}
	} else {
		out = make([][]Delivery, len(pkts))
	}
	switch {
	case len(pkts) == 0:
		return out
	case len(s.shards) == 1 || len(pkts) == 1:
		s.runShard(s.shards[s.shardIndex(pkts[0].Flow)], pkts, nil, out, now, false)
		return out
	}
	w := len(s.shards)
	var assign [][]int32
	if locked {
		if bs.assign == nil {
			bs.assign = make([][]int32, w)
		}
		assign = bs.assign
		for i := range assign {
			assign[i] = assign[i][:0]
		}
	} else {
		assign = make([][]int32, w)
	}
	rr := 0
	for i, p := range pkts {
		var sh int
		if p.Flow != 0 {
			sh = s.shardIndex(p.Flow)
		} else {
			sh = rr
			rr++
			if rr == w {
				rr = 0
			}
		}
		assign[sh] = append(assign[sh], int32(i))
	}
	var wg sync.WaitGroup
	for sh := 0; sh < w; sh++ {
		if len(assign[sh]) == 0 {
			continue
		}
		wg.Add(1)
		// Captures passed as arguments: a closure capturing out/pkts by
		// reference would heap-allocate their headers on every call,
		// including the single-shard path that never reaches this loop.
		go func(sh *shard, idxs []int32, pkts []*Packet, out [][]Delivery) {
			defer wg.Done()
			s.runShard(sh, pkts, idxs, out, now, false)
		}(s.shards[sh], assign[sh], pkts, out)
	}
	wg.Wait()
	return out
}

// runShard walks one shard's share of a call: the packets pkts[idxs]
// (idxs nil = all of pkts), writing each packet's deliveries to out at
// the packet's index. The whole share runs under the shard lock
// against one epoch; stats commit once, and custom actions run after
// the unlock. fresh selects heap-fresh output (Process) over the shard
// arenas (ProcessBatch).
func (s *Switch) runShard(sh *shard, pkts []*Packet, idxs []int32, out [][]Delivery, now time.Duration, fresh bool) {
	sh.mu.Lock()
	ep := s.epoch.Load()
	w := walk{s: s, sh: sh, ep: ep, rd: ep.state.reader(now), now: now, fresh: fresh}
	if !fresh {
		sh.delArena.reset()
		sh.msgArena.reset()
	}
	if idxs == nil {
		for i, p := range pkts {
			out[i] = w.packet(p, i)
		}
	} else {
		for _, i := range idxs {
			out[i] = w.packet(pkts[i], int(i))
		}
	}
	sh.stats = sh.stats.add(w.st)
	sh.mu.Unlock()
	// Custom actions run outside the shard lock: handlers are user code
	// and may re-enter the switch.
	for _, c := range w.customs {
		fn, ok := s.customs[c.act.Name]
		if !ok {
			continue
		}
		extra := fn(c.act, c.m, pkts[c.pkt])
		out[c.pkt] = append(out[c.pkt], extra...)
		sh.mu.Lock()
		sh.stats.Deliveries += int64(len(extra))
		sh.mu.Unlock()
	}
}

// walk is one locked runShard call: the epoch and state view every
// packet of the call runs against, and what the call accumulates — its
// stats and the custom actions to run after the unlock.
type walk struct {
	s     *Switch
	sh    *shard
	ep    *epoch
	rd    subscription.StateReader
	now   time.Duration
	fresh bool

	st      StatsSnapshot
	customs []customHit
}

// customHit defers a matched custom action until the shard lock is
// released; pkt is the packet's index in the call.
type customHit struct {
	pkt int
	act subscription.Action
	m   *spec.Message
}

// packet runs one packet through the pipeline (§VI): the ingress pass
// evaluates each message — leaf-cache probe and fill when the cache
// serves the epoch, a plain stage walk otherwise — and buckets it by
// egress port; the crossbar then emits one pruned replica per port.
// Packets deeper than the parse budget recirculate, adding latency.
// Stream continuations (no messages, Flow set) forward on the decision
// their header packet cached (§VII-B).
func (w *walk) packet(pkt *Packet, i int) []Delivery {
	s, sh, ep := w.s, w.sh, w.ep
	w.st.Packets++
	w.st.BytesIn += int64(pkt.Bytes)

	if len(pkt.Msgs) == 0 && pkt.Flow != 0 {
		acts, ok := sh.flows.lookup(pkt.Flow, w.now, ep.gen)
		if !ok {
			w.st.FlowMisses++
			return nil
		}
		w.st.FlowHits++
		out, _ := w.alloc(len(acts.Ports), 0)
		out = out[:0]
		for _, port := range acts.Ports {
			if s.cfg.DropOnIngressPort && port == pkt.In {
				continue
			}
			out = append(out, Delivery{Port: port, Latency: s.cfg.BaseLatency})
			w.st.BytesOut += int64(pkt.Bytes)
		}
		w.st.Deliveries += int64(len(out))
		return out
	}

	passes := 1
	if s.static != nil {
		if budget := s.static.MaxParsedMessages; budget > 0 && len(pkt.Msgs) > budget {
			passes += (len(pkt.Msgs) - 1) / budget
			w.st.Recirculations += int64(passes - 1)
		}
	}
	latency := s.cfg.BaseLatency + time.Duration(passes-1)*s.cfg.RecirculationLatency

	scr := &sh.scr
	scr.reset()
	useLeaf := sh.leaf != nil && ep.leaf != nil
	var flowPorts subscription.ActionSet
	for _, m := range pkt.Msgs {
		w.st.Messages++
		var le *compiler.LeafEntry
		if useLeaf {
			buildLeafKey(ep.leaf, m, &scr.key)
			if e := sh.leaf.probe(&scr.key, ep.gen); e != nil {
				// Cache hit: admissible entries are stateless by
				// construction, so forwarding is the whole effect.
				w.st.LeafHits++
				if e.nports > 0 {
					w.st.Matched++
					for _, port := range e.ports[:e.nports] {
						w.forward(pkt, int(port), m, &flowPorts)
					}
				}
				continue
			}
			w.st.LeafMisses++
			var pure bool
			le, pure = ep.prog.LookupKeyed(m, w.rd, ep.leaf.keyStage)
			// The FIB cache-fill rule: memoize only outcomes that are a
			// pure function of the cache key (walk purity) and whose
			// action sets are stateless — a cached leaf then subsumes
			// every decision reachable from its key, so no overlapping
			// higher-priority outcome can be hidden (DESIGN.md §16).
			if pure && (le == nil || leafAdmissible(le)) {
				var ports []int
				if le != nil {
					ports = le.Actions.Ports
				}
				sh.leaf.fill(&scr.key, ep.gen, ports)
				w.st.LeafFills++
			}
		} else {
			le = ep.prog.Lookup(m, w.rd)
		}
		if le == nil {
			continue
		}
		// State updates fire for every message whose stateless context
		// matched, before forwarding semantics are applied.
		for _, key := range le.Updates {
			ep.state.Update(key, m, w.now)
			w.st.StateUpdates++
		}
		if le.Actions.IsEmpty() {
			continue
		}
		w.st.Matched++
		for _, port := range le.Actions.Ports {
			w.forward(pkt, port, m, &flowPorts)
		}
		for _, act := range le.Actions.Custom {
			w.customs = append(w.customs, customHit{pkt: i, act: act, m: m})
		}
	}

	// Stream subscriptions: the header-bearing packet installs the
	// stream's merged port decision for its continuations (§VII-B),
	// tagged with the epoch it was compiled under.
	if pkt.Flow != 0 {
		sh.flows.install(pkt.Flow, flowPorts, w.now, ep.gen)
	}

	// Crossbar + egress: one pruned replica per port, deterministic
	// port order, message slices carved from one block.
	scr.sort()
	total := 0
	for _, b := range scr.buckets[:scr.n] {
		total += len(b.msgs)
	}
	out, flat := w.alloc(scr.n, total)
	for k, b := range scr.buckets[:scr.n] {
		msgs := flat[:len(b.msgs):len(b.msgs)]
		flat = flat[len(b.msgs):]
		copy(msgs, b.msgs)
		out[k] = Delivery{Port: b.port, Msgs: msgs, Latency: latency}
		// Pruned replica bytes scale with the surviving message share.
		w.st.BytesOut += int64(pkt.Bytes * len(b.msgs) / len(pkt.Msgs))
	}
	w.st.Deliveries += int64(scr.n)
	return out
}

// forward sends m to port: into the stream decision when the packet
// has a flow (the cached decision keeps the full port set; ingress
// suppression re-applies per continuation packet), and into port's
// replica unless it is the ingress port.
func (w *walk) forward(pkt *Packet, port int, m *spec.Message, flowPorts *subscription.ActionSet) {
	if pkt.Flow != 0 {
		flowPorts.Add(subscription.FwdAction(port))
	}
	if w.s.cfg.DropOnIngressPort && port == pkt.In {
		return
	}
	w.sh.scr.add(port, m)
}

// alloc returns output memory for n deliveries carrying msgs messages
// in total: heap-fresh for Process, carved from the shard arenas for
// ProcessBatch.
func (w *walk) alloc(n, msgs int) ([]Delivery, []*spec.Message) {
	if w.fresh {
		return make([]Delivery, n), make([]*spec.Message, msgs)
	}
	return w.sh.delArena.alloc(n), w.sh.msgArena.alloc(msgs)
}
