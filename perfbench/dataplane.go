package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"camus/internal/compiler"
	"camus/internal/formats"
	"camus/internal/pipeline"
	"camus/internal/spec"
	"camus/internal/subscription"
)

const (
	// batchSize is the number of wire packets per ProcessBatch call.
	batchSize = 256
	// chunkBatches bounds how much traffic is generated ahead of use.
	chunkBatches = 8
	// checkEvery / checkPkts: every checkEvery-th batch, the first
	// checkPkts packets are compared with the reference evaluator.
	checkEvery = 16
	checkPkts  = 4
	// keyWindow is the message window over which distinct leaf-cache
	// keys are counted (the working set the cache sees).
	keyWindow = 1 << 18
	// rateWindows: the packet rate and the batch tail are the medians of
	// the rates and tails measured in this many equal slices of a phase,
	// so a burst of interference from a shared host moves one slice, not
	// the result.
	rateWindows = 20
)

// genPacket is one generated datagram: its wire bytes and the field
// values the decoder must recover, len(itchFields) per message.
// Buffers are reused across chunks.
type genPacket struct {
	wire []byte
	want []spec.Value
}

// dpPhase is the measurement of one timed phase.
type dpPhase struct {
	wall       time.Duration
	pkts, msgs int64
	busy       time.Duration
	batch      latencies
	heap       *heapPeak
	decodeNs   int64
	processNs  int64
	decAllocs  uint64
	procAllocs uint64
	st         pipeline.StatsSnapshot
	keys       int
	// speed is the host's speed during the phase (hostSpeed.factor).
	speed float64
	// rates and tails are the per-window packet rates (packets per busy
	// second) and batch-latency tails; win is the open window.
	rates, tails, tailPcts []float64
	winPkts, winBusy       float64
	win                    latencies
}

// mpps is the median window rate in millions of packets per second.
func (p *dpPhase) mpps() float64 { return median(p.rates) / 1e6 }

// account adds one timed batch.
func (p *dpPhase) account(pkts int, lat time.Duration) {
	p.winPkts += float64(pkts)
	p.winBusy += lat.Seconds()
	p.win.add(lat)
}

// closeWindow records the open window's rate and tail.
func (p *dpPhase) closeWindow() {
	if p.win.n() == 0 {
		return
	}
	pct, us := p.win.tail()
	p.rates = append(p.rates, p.winPkts/p.winBusy)
	p.tails = append(p.tails, us)
	p.tailPcts = append(p.tailPcts, pct)
	p.winPkts, p.winBusy, p.win = 0, 0, latencies{}
}

// tail is the median of the window tails, with the median percentile.
func (p *dpPhase) tail() (pct, us float64) { return median(p.tailPcts), median(p.tails) }

// dpRun holds the state shared by the phases of one dataplane run.
type dpRun struct {
	out   *outcome
	rules []*subscription.Rule
	sw    *pipeline.Switch
	gen   func(*genPacket)
	th    *thread
	hs    *hostSpeed
	chunk []genPacket
	pkts  []*pipeline.Packet
	fidx  []int
	kidx  []int
	nb    int64
}

// runITCHFeed runs the itch-feed workload: seeded MoldUDP/ITCH
// datagrams decoded with formats.DecodeITCHFeed, closed loop in batches
// through a 1-worker switch built with the spec's static pipeline.
func runITCHFeed(o options, tr *tracer) (*outcome, error) {
	out := &outcome{e2e: map[string]metric{}, layer: map[string]metric{}}
	if err := checkWriters(); err != nil {
		return nil, err
	}
	rules, err := itchRules(o.seed)
	if err != nil {
		return nil, err
	}
	hs, err := newHostSpeed()
	if err != nil {
		return nil, err
	}
	// Set-up: static pipeline generation, compile and switch
	// construction, repeated; setup_s is the median of the set-ups, each
	// at the host speed sampled just before and after it.
	if o.setups <= 0 {
		o.setups = 9
	}
	var setups, rawSetups, compiles []float64
	var sw *pipeline.Switch
	var entries, budget int
	for i := 0; i < o.setups; i++ {
		hs.reset()
		hs.samples(setupSamples - 1)
		t0 := time.Now()
		static, err := compiler.GenerateStatic(formats.ITCH, compiler.StaticOptions{})
		if err != nil {
			return nil, err
		}
		prog, err := compiler.Compile(formats.ITCH, rules, compiler.Options{LastHop: true})
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		sw, err = pipeline.NewSwitch("itch-feed", static, prog, pipeline.WithWorkers(1))
		if err != nil {
			return nil, err
		}
		raw := time.Since(t0).Seconds()
		hs.samples(setupSamples)
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw*hs.factor())
		compiles = append(compiles, t1.Sub(t0).Seconds())
		entries, budget = prog.TotalEntries(), static.MaxParsedMessages
	}
	runtime.GC()

	d := &dpRun{out: out, rules: rules, sw: sw, th: tr.thread(), hs: hs,
		gen:  newITCHGen(o.seed),
		pkts: make([]*pipeline.Packet, batchSize)}
	for i := range d.pkts {
		d.pkts[i] = &pipeline.Packet{In: itchPorts}
	}
	for _, name := range itchFields {
		fl, ok := formats.ITCH.Field(name)
		idx, sub := formats.ITCH.SubscribableIndex(fl)
		if !ok || !sub {
			return nil, fmt.Errorf("itch-feed: no subscribable field %q", name)
		}
		d.fidx = append(d.fidx, idx)
	}
	for _, fl := range pipeline.LeafKeyFields(formats.ITCH) {
		idx, _ := formats.ITCH.SubscribableIndex(fl)
		d.kidx = append(d.kidx, idx)
	}

	total := time.Duration(o.seconds * float64(time.Second))
	warm := min(time.Second, total/5)
	d.phase(warm, false)
	lines := []string{fmt.Sprintf("itch-feed: %d rules, %d table entries, %d worker(s), parse budget %d msgs/pass",
		len(rules), entries, sw.Workers(), budget)}
	if !o.trace {
		ph := d.phase(total, false)
		pct, tail := ph.tail()
		k := ph.speed
		setE2E(out, median(setups), ph.heap.mb(), ph.mpps()*1e6/k, ph.batch.p50us()*k, tail*k)
		setPub(out, ph.batch.p50us()*k, tail*k)
		out.lines = append(lines,
			fmt.Sprintf("host speed %.4g of reference during load; figures below are measured (at reference speed)", k),
			fmt.Sprintf("pkt_rate_mpps = %.6g Mpps (%.6g) (median of %d windows; %d packets, %d messages, %.3fs busy of %.3fs)",
				ph.mpps(), ph.mpps()/k, len(ph.rates), ph.pkts, ph.msgs, ph.busy.Seconds(), ph.wall.Seconds()),
			fmt.Sprintf("batch_p50_us = %.6g us (%.6g)", ph.batch.p50us(), ph.batch.p50us()*k),
			fmt.Sprintf("batch_tail_us = %.6g us (%.6g) (median over %d windows of each window's p%.1f; %d samples)", tail, tail*k, len(ph.tails), pct, ph.batch.n()),
			fmt.Sprintf("setup_s = %.6g s (%.6g) (median of %d)", median(rawSetups), median(setups), len(setups)),
			fmt.Sprintf("heap_peak_mb = %.6g MB", ph.heap.mb()))
		return out, nil
	}
	untraced := d.phase(total/2, false)
	tr.on.Store(true)
	ph := d.phase(total/2, true)
	tr.on.Store(false)
	m := out.layer
	pk := float64(ph.pkts)
	st := ph.st
	setMetric(m, "formats.decode_ns_per_pkt", ratio(float64(ph.decodeNs), pk), "ns")
	setMetric(m, "formats.allocs_per_pkt", ratio(float64(ph.decAllocs), pk), "count")
	setMetric(m, "pipeline.process_ns_per_pkt", ratio(float64(ph.processNs), pk), "ns")
	setMetric(m, "pipeline.allocs_per_pkt", ratio(float64(ph.procAllocs), pk), "count")
	setPipelineLayer(out, st)
	setMetric(m, "pipeline.distinct_keys_256k", float64(ph.keys), "count")
	setMetric(m, "pipeline.leaf_capacity", float64(sw.LeafCacheStats().Capacity), "count")
	setMetric(m, "compiler.setup_compile_s", median(compiles), "s")
	setTraceLayer(out, tr, untraced.mpps()/untraced.speed, ph.mpps()/ph.speed, ph.wall, d.th)
	out.lines = append(lines,
		fmt.Sprintf("untraced half %.6g Mpps, traced half %.6g Mpps (at reference host speed)", untraced.mpps()/untraced.speed, ph.mpps()/ph.speed),
		fmt.Sprintf("leaf cache: %d distinct keys per %d messages vs capacity %d; hit ratio %.4g",
			ph.keys, keyWindow, sw.LeafCacheStats().Capacity, m["pipeline.leaf_hit_ratio"].Value))
	return out, nil
}

// setE2E fills the contract metrics shared by every workload.
func setE2E(out *outcome, setupS, heapMB, rate, p50us, tailUs float64) {
	m := out.e2e
	setMetric(m, "setup_s", setupS, "s")
	setMetric(m, "heap_peak_mb", heapMB, "MB")
	setMetric(m, "ops_per_s", rate, "1/s")
	setMetric(m, "op_p50_us", p50us, "us")
	setMetric(m, "op_tail_us", tailUs, "us")
}

// phase runs closed-loop batches for dur. A traced phase also records
// spans, allocation counts and distinct keys.
func (d *dpRun) phase(dur time.Duration, traced bool) *dpPhase {
	ph := &dpPhase{heap: newHeapPeak()}
	var ac *allocCounter
	var keys map[uint64]struct{}
	var keyMsgs int
	if traced {
		ac = newAllocCounter()
		keys = make(map[uint64]struct{}, keyWindow)
	}
	st0 := d.sw.Stats()
	th := d.th
	d.hs.reset()
	start := time.Now()
	deadline := start.Add(dur)
	window := dur / rateWindows
	winEnd := start.Add(window)
	for time.Now().Before(deadline) {
		th.begin("bench.generate", 0)
		d.generate()
		th.end()
		for b := 0; b < chunkBatches && time.Now().Before(deadline); b++ {
			batch := d.chunk[b*batchSize : (b+1)*batchSize]
			if d.hs.due() {
				th.begin("bench.hostspeed", 0)
				d.hs.sample()
				th.end()
			}
			d.nb++
			ph.heap.sample()
			var a0, a1, a2 uint64
			if traced {
				a0, _ = ac.read()
			}
			th.begin("bench.batch", uint64(d.nb))
			t0 := time.Now()
			for i := range batch {
				th.begin("formats.DecodeITCHFeed", 0)
				msgs, err := formats.DecodeITCHFeed(batch[i].wire)
				th.end()
				if err != nil {
					d.out.mismatch("formats.DecodeITCHFeed: %v", err)
					msgs = nil
				}
				d.pkts[i].Msgs = msgs
				d.pkts[i].Bytes = len(batch[i].wire)
				ph.msgs += int64(len(msgs))
			}
			t1 := time.Now()
			// The allocation counter is read between the timed windows,
			// so its cost is not charged to the program.
			if traced {
				a1, _ = ac.read()
			}
			t2 := time.Now()
			th.begin("pipeline.ProcessBatch", 0)
			res := d.sw.ProcessBatch(d.pkts, 0)
			th.end()
			t3 := time.Now()
			th.end()
			if traced {
				a2, _ = ac.read()
				ph.decAllocs += a1 - a0
				ph.procAllocs += a2 - a1
			}
			lat := t1.Sub(t0) + t3.Sub(t2)
			ph.decodeNs += int64(t1.Sub(t0))
			ph.processNs += int64(t3.Sub(t2))
			ph.busy += lat
			ph.account(batchSize, lat)
			if t3.After(winEnd) {
				ph.closeWindow()
				winEnd = winEnd.Add(window)
			}
			ph.batch.add(lat)
			ph.pkts += batchSize
			d.out.attempted += batchSize
			if d.nb%checkEvery == 0 {
				th.begin("bench.verify", 0)
				d.verify(batch, res)
				th.end()
			}
			if traced && keyMsgs < keyWindow {
				th.begin("bench.keys", 0)
				for _, p := range d.pkts {
					for _, msg := range p.Msgs {
						if keyMsgs < keyWindow {
							keys[leafKeyHash(msg, d.kidx)] = struct{}{}
							keyMsgs++
						}
					}
				}
				th.end()
			}
		}
	}
	ph.wall = time.Since(start)
	ph.speed = d.hs.factor()
	if len(ph.rates) == 0 {
		ph.closeWindow()
	}
	st1 := d.sw.Stats()
	ph.st = statsDelta(st1, st0)
	ph.keys = len(keys)
	return ph
}

// generate refills the bounded traffic chunk from the seeded generator.
func (d *dpRun) generate() {
	if d.chunk == nil {
		d.chunk = make([]genPacket, chunkBatches*batchSize)
	}
	for i := range d.chunk {
		d.gen(&d.chunk[i])
	}
}

// verify compares the first checkPkts packets of a batch with the
// independent references: decoded fields against the generator's
// values, deliveries against the AST evaluator over the rule set.
func (d *dpRun) verify(batch []genPacket, res [][]pipeline.Delivery) {
	for i := 0; i < checkPkts; i++ {
		p := d.pkts[i]
		nf := len(d.fidx)
		if len(p.Msgs)*nf != len(batch[i].want) {
			d.out.mismatch("packet decoded %d messages, generated %d", len(p.Msgs), len(batch[i].want)/nf)
			continue
		}
		for j, m := range p.Msgs {
			for k, idx := range d.fidx {
				v, _ := m.Get(idx)
				if w := batch[i].want[j*nf+k]; v.Kind != w.Kind || v.Int != w.Int || v.Str != w.Str {
					d.out.mismatch("message %d field %s decoded %v, generated %v", j, itchFields[k], v, w)
				}
			}
		}
		want := map[int][]*spec.Message{}
		for _, m := range p.Msgs {
			acts := subscription.MatchActions(d.rules, m, nil)
			for _, port := range acts.Ports {
				if port != p.In {
					want[port] = append(want[port], m)
				}
			}
		}
		got := res[i]
		if len(got) != len(want) {
			d.out.mismatch("packet delivered to %d ports, reference %d", len(got), len(want))
			continue
		}
		ports := make([]int, 0, len(want))
		for port := range want {
			ports = append(ports, port)
		}
		sort.Ints(ports)
		for k, dl := range got {
			w := want[ports[k]]
			same := dl.Port == ports[k] && len(dl.Msgs) == len(w)
			for j := 0; same && j < len(w); j++ {
				same = dl.Msgs[j] == w[j]
			}
			if !same {
				d.out.mismatch("delivery to port %d (%d msgs) differs from reference port %d (%d msgs)",
					dl.Port, len(dl.Msgs), ports[k], len(w))
			}
		}
	}
}

// leafKeyHash hashes a message's leaf-cache key fields (FNV-1a).
func leafKeyHash(m *spec.Message, idx []int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) { h = (h ^ uint64(b)) * 1099511628211 }
	for _, i := range idx {
		v, ok := m.Get(i)
		if !ok {
			mix(0xff)
			continue
		}
		for s := 0; s < 64; s += 8 {
			mix(byte(v.Int >> s))
		}
		for k := 0; k < len(v.Str); k++ {
			mix(v.Str[k])
		}
		mix(0)
	}
	return h
}

func statsDelta(a, b pipeline.StatsSnapshot) pipeline.StatsSnapshot {
	return pipeline.StatsSnapshot{
		Packets:        a.Packets - b.Packets,
		Messages:       a.Messages - b.Messages,
		Matched:        a.Matched - b.Matched,
		Deliveries:     a.Deliveries - b.Deliveries,
		Recirculations: a.Recirculations - b.Recirculations,
		LeafHits:       a.LeafHits - b.LeafHits,
		LeafMisses:     a.LeafMisses - b.LeafMisses,
		LeafFills:      a.LeafFills - b.LeafFills,
	}
}

// setPipelineLayer reports the switch counters of a phase.
func setPipelineLayer(out *outcome, st pipeline.StatsSnapshot) {
	m := out.layer
	setMetric(m, "pipeline.leaf_hit_ratio", ratio(float64(st.LeafHits), float64(st.LeafHits+st.LeafMisses)), "ratio")
	setMetric(m, "pipeline.leaf_hits_per_fill", ratio(float64(st.LeafHits), float64(st.LeafFills)), "ratio")
	setMetric(m, "pipeline.deliveries_per_pkt", ratio(float64(st.Deliveries), float64(st.Packets)), "count")
	setMetric(m, "pipeline.matched_ratio", ratio(float64(st.Matched), float64(st.Messages)), "ratio")
	setMetric(m, "pipeline.recirculations_per_pkt", ratio(float64(st.Recirculations), float64(st.Packets)), "count")
}

// ---------------------------------------------------------------------
// itch-feed

const (
	itchSymbols = 500
	itchPorts   = 48
	// itchWalk bounds each symbol's price walk around its mid, in ticks.
	itchWalk = 20
	// itchGrid is the price grid rule thresholds sit on; mids sit half
	// way between grid lines, so a walk never crosses a threshold.
	itchGrid = 100
)

// itchFields are checked on every sampled decoded message.
var itchFields = []string{"itch_order.stock", "itch_order.price", "itch_order.shares", "itch_order.buy_sell"}

func symbol(i int) string { return fmt.Sprintf("S%03d", i) }

// itchSubscribed reports whether a symbol has subscribers: four in five
// do, so a fifth of the feed matches nothing.
func itchSubscribed(sym int) bool { return sym%5 != 4 }

// itchMids are the symbols' mid prices, derived from the seed so rules
// and traffic agree without sharing a generator.
func itchMids(seed int64) []int64 {
	r := rand.New(rand.NewSource(seed ^ 0x5eed))
	mids := make([]int64, itchSymbols)
	for i := range mids {
		mids[i] = itchGrid*int64(3+r.Intn(47)) + itchGrid/2
	}
	return mids
}

// itchRules builds the §VIII-F3 rule shape, stock == S and price > P:
// 2000 rules, five per subscribed symbol, with thresholds on the grid
// lines around the symbol's mid — two below it (they match every order
// of the symbol), three above — and random ports.
func itchRules(seed int64) ([]*subscription.Rule, error) {
	r := rand.New(rand.NewSource(seed))
	mids := itchMids(seed)
	p := subscription.NewParser(formats.ITCH)
	var rules []*subscription.Rule
	for s := 0; s < itchSymbols; s++ {
		if !itchSubscribed(s) {
			continue
		}
		for j := int64(-2); j <= 2; j++ {
			src := fmt.Sprintf("stock == %s and price > %d: fwd(%d)",
				symbol(s), mids[s]-itchGrid/2+itchGrid*j, r.Intn(itchPorts))
			rule, err := p.ParseRule(src, len(rules))
			if err != nil {
				return nil, err
			}
			rules = append(rules, rule)
		}
	}
	return rules, nil
}

// newITCHGen returns a feed of MoldUDP datagrams carrying 1–8 add
// orders (Zipf-sized). Symbols are Zipf-popular; each symbol's price
// walks a tick grid around its mid and sizes are round lots, so order
// keys repeat as in a real feed.
func newITCHGen(seed int64) func(*genPacket) {
	r := rand.New(rand.NewSource(seed*7919 + 17))
	mids := itchMids(seed)
	walk := make([]int64, itchSymbols)
	syms := make([]string, itchSymbols)
	for i := range syms {
		syms[i] = symbol(i)
	}
	symZipf := rand.NewZipf(r, 1.2, 1, itchSymbols-1)
	batchZipf := rand.NewZipf(r, 1.5, 1, 7)
	lotZipf := rand.NewZipf(r, 1.6, 1, 9)
	var seq, ref uint64
	var ts int64
	orders := make([]formats.Order, 8)
	return func(p *genPacket) {
		n := 1 + int(batchZipf.Uint64())
		p.want = p.want[:0]
		for j := range orders[:n] {
			s := int(symZipf.Uint64())
			walk[s] = min(max(walk[s]+int64(r.Intn(5)-2), -itchWalk), itchWalk)
			ref++
			ts += 1 + int64(r.Intn(1000))
			o := &orders[j]
			*o = formats.Order{
				Seq: ref, Stock: syms[s], Price: mids[s] + walk[s],
				Shares: 100 * int64(1+lotZipf.Uint64()), Buy: r.Intn(2) == 0,
				RefNum: ref, TimeNS: ts, Locate: s,
			}
			bs := int64('S')
			if o.Buy {
				bs = 'B'
			}
			p.want = append(p.want, spec.StrVal(o.Stock), spec.IntVal(o.Price), spec.IntVal(o.Shares), spec.IntVal(bs))
		}
		seq++
		p.wire = appendITCH(p.wire[:0], "BENCH", seq, orders[:n])
	}
}
