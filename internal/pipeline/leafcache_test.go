package pipeline

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"camus/internal/compiler"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// compileFor compiles a rule set against an existing switch's spec
// (for Install churn in leaf-cache tests).
func compileFor(t testing.TB, sp *spec.Spec, rulesSrc string) *compiler.Program {
	t.Helper()
	rules, err := subscription.NewParser(sp).ParseRules(rulesSrc)
	if err != nil {
		t.Fatalf("rules: %v", err)
	}
	prog, err := compiler.Compile(sp, rules, compiler.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func TestLeafCacheHitsAndStats(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)", compiler.Options{})
	pkt := &Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 10)}, Bytes: 100}
	for i := 0; i < 3; i++ {
		out := sw.Process(pkt, 0)
		if len(out) != 1 || out[0].Port != 1 {
			t.Fatalf("iteration %d: deliveries = %+v", i, out)
		}
	}
	st := sw.Stats()
	if st.LeafMisses != 1 || st.LeafFills != 1 || st.LeafHits != 2 {
		t.Fatalf("leaf counters = misses %d fills %d hits %d", st.LeafMisses, st.LeafFills, st.LeafHits)
	}
	lcs := sw.LeafCacheStats()
	if !lcs.Enabled || lcs.Capacity == 0 || lcs.Admissible == 0 {
		t.Fatalf("LeafCacheStats = %+v", lcs)
	}
	if lcs.Hits != st.LeafHits || lcs.Misses != st.LeafMisses || lcs.Fills != st.LeafFills {
		t.Fatalf("LeafCacheStats counters diverge from Stats: %+v vs %+v", lcs, st)
	}
}

func TestWithLeafCacheDisable(t *testing.T) {
	sp := spec.MustParse("itch", itchSpecSrc)
	rules, err := subscription.NewParser(sp).ParseRules("stock == GOOGL: fwd(1)")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(sp, rules, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSwitch("s1", nil, prog, WithLeafCache(-1))
	if err != nil {
		t.Fatal(err)
	}
	pkt := &Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 10)}}
	sw.Process(pkt, 0)
	sw.Process(pkt, 0)
	if st := sw.Stats(); st.LeafHits != 0 || st.LeafFills != 0 {
		t.Fatalf("disabled cache recorded traffic: %+v", st)
	}
	if lcs := sw.LeafCacheStats(); lcs.Enabled || lcs.Capacity != 0 {
		t.Fatalf("disabled cache reports %+v", lcs)
	}
}

// TestInstallInvalidatesLeafCache mirrors TestInstallClearsFlowCache:
// a hot cached decision must die with the epoch swap.
func TestInstallInvalidatesLeafCache(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)", compiler.Options{})
	pkt := &Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 10)}}
	sw.Process(pkt, 0)
	if out := sw.Process(pkt, 0); len(out) != 1 || out[0].Port != 1 {
		t.Fatalf("pre-install deliveries = %+v", out)
	}
	if st := sw.Stats(); st.LeafHits == 0 {
		t.Fatalf("expected a warm cache before install: %+v", st)
	}
	if err := sw.Install(compileFor(t, sp, "stock == GOOGL: fwd(7)")); err != nil {
		t.Fatal(err)
	}
	if out := sw.Process(pkt, 0); len(out) != 1 || out[0].Port != 7 {
		t.Fatalf("post-install deliveries = %+v (stale leaf-cache decision?)", out)
	}
}

// TestLeafCachePurityNoCacheHiding is the FIB cache-hiding regression:
// a rule refining a cacheable rule on a *non-key* field (str16 is not
// packable into the 5-field key) must never be hidden by a cached
// coarse decision. The fill rule (walk purity) refuses to memoize the
// coarse outcome because its walk branches on the non-key field.
func TestLeafCachePurityNoCacheHiding(t *testing.T) {
	src := `
header market {
    stock : str8 @field_exact;
    price : u32 @field;
    name : str16 @field;
}
`
	sp := spec.MustParse("market", src)
	rules, err := subscription.NewParser(sp).ParseRules(`
stock == GOOGL: fwd(1)
stock == GOOGL and name == SPECIALISSUE: fwd(2)
`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(sp, rules, compiler.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := NewSwitch("s1", nil, prog)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string) *spec.Message {
		m := spec.NewMessage(sp)
		m.MustSet("stock", spec.StrVal("GOOGL"))
		m.MustSet("price", spec.IntVal(50))
		m.MustSet("name", spec.StrVal(name))
		return m
	}
	// Coarse packet first: matches only rule 1. Its key (stock, price)
	// is identical to the refined packet's key below.
	for i := 0; i < 2; i++ {
		out := sw.Process(&Packet{In: 9, Msgs: []*spec.Message{mk("ORDINARY")}}, 0)
		if len(out) != 1 || out[0].Port != 1 {
			t.Fatalf("coarse deliveries = %+v", out)
		}
	}
	// Refined packet: must reach both rules even though the coarse
	// outcome was hot. A key-only cache fill here would hide fwd(2).
	out := sw.Process(&Packet{In: 9, Msgs: []*spec.Message{mk("SPECIALISSUE")}}, 0)
	if len(out) != 2 || out[0].Port != 1 || out[1].Port != 2 {
		t.Fatalf("refined deliveries = %+v (cache-hiding!)", out)
	}
	// And the impure walks must not have filled at all.
	if st := sw.Stats(); st.LeafFills != 0 || st.LeafHits != 0 {
		t.Fatalf("impure walks were cached: %+v", st)
	}
}

// TestLeafCacheChurnEpochConsistency races publications across Install
// swaps with the leaf cache on: every delivery must come from one of
// the two installed programs, and once traffic quiesces the hot cache
// must serve exactly the final program's decision. Run under -race
// this doubles as the per-shard cache stress.
func TestLeafCacheChurnEpochConsistency(t *testing.T) {
	sw, sp := buildSwitch(t, "stock == GOOGL: fwd(1)", compiler.Options{})
	progs := []*compiler.Program{
		compileFor(t, sp, "stock == GOOGL: fwd(1)"),
		compileFor(t, sp, "stock == GOOGL: fwd(2)"),
	}
	pkts := make([]*Packet, 64)
	for i := range pkts {
		sym := "GOOGL"
		if i%4 == 3 {
			sym = "MSFT"
		}
		pkts[i] = &Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, sym, int64(40+i%20), 10)}}
	}
	const iters = 200
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	// Concurrent publishers go through Process (heap-fresh results, the
	// concurrent-publication API); they contend the shard lock against
	// the batch goroutine below.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				for i, p := range pkts {
					for _, d := range sw.Process(p, 0) {
						if d.Port != 1 && d.Port != 2 {
							select {
							case errs <- fmt.Sprintf("worker %d iter %d pkt %d: port %d", g, it, i, d.Port):
							default:
							}
						}
					}
				}
			}
		}(g)
	}
	// One dedicated batch goroutine drives the arena path; per the reuse
	// contract it reads each batch's results before its own next call.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for it := 0; it < iters; it++ {
			out := sw.ProcessBatch(pkts, 0)
			for i, ds := range out {
				for _, d := range ds {
					if d.Port != 1 && d.Port != 2 {
						select {
						case errs <- fmt.Sprintf("batch iter %d pkt %d: port %d", it, i, d.Port):
						default:
						}
					}
				}
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if err := sw.Install(progs[i%2]); err != nil {
				select {
				case errs <- err.Error():
				default:
				}
			}
		}
	}()
	wg.Wait()
	select {
	case msg := <-errs:
		t.Fatal(msg)
	default:
	}
	// Quiesce on the final program: the warm cache must yield its
	// decision, not any earlier epoch's.
	final := compileFor(t, sp, "stock == GOOGL: fwd(2)")
	if err := sw.Install(final); err != nil {
		t.Fatal(err)
	}
	pkt := &Packet{In: 0, Msgs: []*spec.Message{itchMsg(sp, "GOOGL", 50, 10)}}
	for i := 0; i < 3; i++ {
		out := sw.Process(pkt, 0)
		if len(out) != 1 || out[0].Port != 2 {
			t.Fatalf("post-churn deliveries = %+v", out)
		}
	}
}

// TestProcessBatchFastPathZeroAlloc pins the single-walk invariant: a
// warm single-worker ProcessBatch allocates nothing per op, with the
// leaf cache on or off, and for packets that fit one parser pass as
// well as packets deeper than the parse budget (4), which recirculate.
func TestProcessBatchFastPathZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name string
		leaf int // WithLeafCache size
		msgs int // messages per packet
	}{
		{"leaf=on/single-pass", 0, 1},
		{"leaf=on/recirculating", 0, 7},
		{"leaf=off/single-pass", -1, 1},
		{"leaf=off/recirculating", -1, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sw, sp := buildSwitch(t, `
stock == GOOGL: fwd(1)
stock == MSFT and price > 100: fwd(2)
price > 500: fwd(3)
`, compiler.Options{}, WithLeafCache(tc.leaf))
			syms := []string{"GOOGL", "MSFT", "AAPL", "INTC"}
			pkts := make([]*Packet, 256)
			for i := range pkts {
				msgs := make([]*spec.Message, tc.msgs)
				for j := range msgs {
					k := i*tc.msgs + j
					msgs[j] = itchMsg(sp, syms[k%len(syms)], int64(50+k*7%1000), 10)
				}
				pkts[i] = &Packet{In: 0, Msgs: msgs, Bytes: 64 * tc.msgs}
			}
			// Warm the cache, the port buckets and the arenas.
			for i := 0; i < 3; i++ {
				sw.ProcessBatch(pkts, 0)
			}
			allocs := testing.AllocsPerRun(20, func() {
				sw.ProcessBatch(pkts, 0)
			})
			if allocs != 0 {
				t.Fatalf("ProcessBatch allocates %.1f allocs/op, want 0", allocs)
			}
			st := sw.Stats()
			if tc.msgs > 4 && st.Recirculations == 0 {
				t.Fatalf("deep packets never recirculated: %+v", st)
			}
			if hit := st.LeafHits > 0; hit != (tc.leaf >= 0) {
				t.Fatalf("leaf hits = %d with WithLeafCache(%d)", st.LeafHits, tc.leaf)
			}
		})
	}
}

// refSwitch is the independent reference the dataplane walk is held to:
// every message is evaluated alone by Program.Lookup (Eval's walk),
// replicated to each port of its action set and pruned per port, with
// ingress drop, recirculation latency, the stream decision table and
// register updates modelled directly — no leaf cache, no shards, no
// scratch buffers.
type refSwitch struct {
	prog   *compiler.Program
	state  *StateTable
	flows  map[FlowKey][]int
	budget int
	cfg    Config
	custom CustomActionFunc
}

func (r *refSwitch) process(pkt *Packet, now time.Duration) []Delivery {
	if len(pkt.Msgs) == 0 && pkt.Flow != 0 {
		ports, ok := r.flows[pkt.Flow]
		if !ok {
			return nil
		}
		var out []Delivery
		for _, p := range ports {
			if p != pkt.In {
				out = append(out, Delivery{Port: p, Latency: r.cfg.BaseLatency})
			}
		}
		return out
	}
	passes := (len(pkt.Msgs) + r.budget - 1) / r.budget
	if passes < 1 {
		passes = 1
	}
	latency := r.cfg.BaseLatency + time.Duration(passes-1)*r.cfg.RecirculationLatency
	byPort := make(map[int][]*spec.Message)
	stream := make(map[int]bool)
	var extra []Delivery
	for _, m := range pkt.Msgs {
		le := r.prog.Lookup(m, r.state.At(now))
		if le == nil {
			continue
		}
		for _, key := range le.Updates {
			r.state.Update(key, m, now)
		}
		for _, p := range le.Actions.Ports {
			stream[p] = true
			if p != pkt.In {
				byPort[p] = append(byPort[p], m)
			}
		}
		for _, act := range le.Actions.Custom {
			extra = append(extra, r.custom(act, m, pkt)...)
		}
	}
	if pkt.Flow != 0 {
		ports := []int{}
		for p := range stream {
			ports = append(ports, p)
		}
		sort.Ints(ports)
		r.flows[pkt.Flow] = ports
	}
	ports := make([]int, 0, len(byPort))
	for p := range byPort {
		ports = append(ports, p)
	}
	sort.Ints(ports)
	var out []Delivery
	for _, p := range ports {
		out = append(out, Delivery{Port: p, Msgs: byPort[p], Latency: latency})
	}
	return append(out, extra...)
}

// TestProcessBatchFastPathMatchesProcess holds ProcessBatch and Process
// to the reference model, with the leaf cache on and off at 1 and 2
// workers, over flow-less packets (single-pass and recirculating),
// stream header and continuation packets, a stateful window and a
// custom action. All messages touching the stateful register share
// one flow, so they keep their order on one shard at any worker count.
func TestProcessBatchFastPathMatchesProcess(t *testing.T) {
	const rules = `
stock == GOOGL: fwd(1)
stock == MSFT and price > 100: fwd(2)
price > 500: fwd(3)
shares > 900: fwd(4)
stock == STAT and avg(price, 100ms) > 60: fwd(5)
stock == CUST: alert(9)
`
	const statFlow = FlowKey(0x5747)
	alert := func(act subscription.Action, m *spec.Message, pkt *Packet) []Delivery {
		return []Delivery{{Port: 100 + pkt.In, Msgs: []*spec.Message{m}}}
	}
	sp := spec.MustParse("itch", itchSpecSrc)
	parsed, err := subscription.NewParser(sp).ParseRules(rules)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiler.Compile(sp, parsed, compiler.Options{LastHop: true})
	if err != nil {
		t.Fatal(err)
	}
	static, err := compiler.GenerateStatic(sp, compiler.StaticOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	// Few distinct prices and share counts, so message keys repeat and
	// the leaf cache serves hits.
	msg := func(syms ...string) *spec.Message {
		return itchMsg(sp, syms[rng.Intn(len(syms))], int64(50+300*rng.Intn(4)), int64(10+970*rng.Intn(2)))
	}
	msgs := func(max int, syms ...string) []*spec.Message {
		out := make([]*spec.Message, 1+rng.Intn(max))
		for i := range out {
			out[i] = msg(syms...)
		}
		return out
	}
	plain := []string{"GOOGL", "MSFT", "AAPL", "INTC", "CUST"}
	var batches [][]*Packet
	for round := 0; round < 3; round++ {
		var flowless, heads, conts, stateful []*Packet
		for i := 0; i < 120; i++ {
			flowless = append(flowless, &Packet{In: rng.Intn(6), Msgs: msgs(9, plain...), Bytes: 100})
		}
		for f := 1; f <= 40; f++ {
			heads = append(heads, &Packet{In: rng.Intn(6), Flow: FlowKey(f), Msgs: msgs(6, plain...), Bytes: 100})
		}
		for f := 1; f <= 50; f++ { // flows 41-50 have no decision
			conts = append(conts, &Packet{In: rng.Intn(6), Flow: FlowKey(f), Bytes: 1400})
			conts = append(conts, &Packet{In: rng.Intn(6), Msgs: msgs(2, plain...), Bytes: 100})
		}
		for i := 0; i < 30; i++ {
			stateful = append(stateful, &Packet{In: rng.Intn(6), Flow: statFlow, Msgs: msgs(3, "STAT", "GOOGL"), Bytes: 100})
			stateful = append(stateful, &Packet{In: rng.Intn(6), Msgs: msgs(5, plain...), Bytes: 100})
		}
		batches = append(batches, flowless, heads, conts, stateful)
	}

	for _, leaf := range []int{0, -1} {
		for _, workers := range []int{1, 2} {
			for _, api := range []string{"batch", "process"} {
				name := fmt.Sprintf("leaf=%d/workers=%d/%s", leaf, workers, api)
				t.Run(name, func(t *testing.T) {
					sw, err := NewSwitch("s1", static, prog, WithLeafCache(leaf), WithWorkers(workers))
					if err != nil {
						t.Fatal(err)
					}
					sw.HandleCustom("alert", alert)
					ref := &refSwitch{prog: prog, state: NewStateTable(prog), flows: make(map[FlowKey][]int),
						budget: static.MaxParsedMessages, cfg: sw.Config(), custom: alert}
					now := time.Duration(0)
					seen := make(map[int]bool) // egress ports delivered to
					for b, pkts := range batches {
						now += 30 * time.Millisecond
						var got [][]Delivery
						if api == "batch" {
							got = sw.ProcessBatch(pkts, now)
						} else {
							for _, p := range pkts {
								got = append(got, sw.Process(p, now))
							}
						}
						for i, p := range pkts {
							want := ref.process(p, now)
							if len(want) == 0 && len(got[i]) == 0 {
								continue
							}
							if !reflect.DeepEqual(got[i], want) {
								t.Fatalf("batch %d pkt %d: got %+v, want %+v", b, i, got[i], want)
							}
							for _, d := range want {
								seen[d.Port] = true
							}
						}
					}
					st := sw.Stats()
					if st.Recirculations == 0 || st.FlowHits == 0 || st.FlowMisses == 0 || st.StateUpdates == 0 {
						t.Fatalf("workload missed a path: %+v", st)
					}
					for _, port := range []int{1, 2, 3, 4, 5, 100} {
						if !seen[port] {
							t.Fatalf("no delivery to port %d (ports seen %v)", port, seen)
						}
					}
					if (st.LeafHits > 0) != (leaf == 0) {
						t.Fatalf("leaf hits = %d with WithLeafCache(%d)", st.LeafHits, leaf)
					}
				})
			}
		}
	}
}
