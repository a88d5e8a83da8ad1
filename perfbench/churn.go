package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"camus/internal/compiler"
	"camus/internal/controller"
	"camus/internal/ctlplane"
	"camus/internal/ctlplane/server"
	"camus/internal/formats"
	"camus/internal/netsim"
	"camus/internal/pipeline"
	"camus/internal/routing"
	"camus/internal/spec"
	"camus/internal/subscription"
	"camus/internal/topology"
)

// churnConfig sizes one churn workload.
type churnConfig struct {
	// registry is the catalog size: every slot is live after warm-up,
	// and churn keeps all but at most slack slots live.
	registry int
	// hosts is the number of subscribing hosts: slot i is held by host
	// i mod hosts. Warm-up sends one request per host, and under the
	// verifiers each request costs a netcheck.
	hosts int
	// warmBatch is the number of filters per warm-up request.
	warmBatch int
	// slack bounds how far the live registry may fall below the full
	// catalog.
	slack int
	// certified turns on camusd's shipped verifier defaults.
	certified bool
	// setups is the number of set-ups setup_s is the median of.
	setups int
}

const (
	churnTenants = 16
	churnSymbols = 25
	// pubInterval / pubBatch: the open-loop publisher sends pubBatch
	// one-message publications every pubInterval.
	pubInterval = 2 * time.Millisecond
	pubBatch    = 8
	// probes is the number of publications checked against the live
	// registry after each run.
	probes = 128
)

// camusd's shipped routing: traffic reduction, exact placement (α=0).
var churnRouting = routing.Options{Policy: routing.TrafficReduction, Alpha: 0}

// churnFilter is one subscription the client owns.
type churnFilter struct {
	slot   int
	tenant string
	host   int
	src    string
	expr   subscription.Expr
	id     int // daemon filter ID once acknowledged
}

// replayStep is one acknowledged request, replayed through a reconciler
// in the traced run.
type replayStep struct {
	add  bool
	warm bool
	keys []int
}

// inflight names the client request being served, so spans recorded on
// the daemon's goroutines can point at it.
type inflight struct{ span, req atomic.Uint64 }

// recorder times a function the daemon calls (installer, validators).
type recorder struct {
	name string
	tr   *tracer
	cur  *inflight
	mu   sync.Mutex
	lat  latencies
}

func (r *recorder) observe(start, end time.Time) {
	r.mu.Lock()
	r.lat.add(end.Sub(start))
	r.mu.Unlock()
	r.tr.record(r.name, r.cur.span.Load(), r.cur.req.Load(), start, end)
}

func (r *recorder) reset() {
	r.mu.Lock()
	r.lat = latencies{}
	r.mu.Unlock()
}

func (r *recorder) snapshot() (n int, p50ms float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lat.n(), r.lat.p50us() / 1e3
}

// timedInstaller wraps a simulated switch's Install with a timer; it
// forwards the leaf-cache gauges the service reads from installers.
type timedInstaller struct {
	sw  *pipeline.Switch
	rec *recorder
}

func (t *timedInstaller) Install(p *compiler.Program) error {
	s := time.Now()
	err := t.sw.Install(p)
	t.rec.observe(s, time.Now())
	return err
}

func (t *timedInstaller) LeafCacheStats() pipeline.LeafCacheStats { return t.sw.LeafCacheStats() }

// rig is one deployed, started and warmed daemon.
type rig struct {
	net    *topology.Network
	sim    *netsim.Sim
	d      *server.Daemon
	base   string
	client *http.Client
	logDir string
}

// close stops the daemon, which flushes its event log, and removes the
// log.
func (g *rig) close() error {
	g.client.CloseIdleConnections()
	err := g.d.Close()
	os.RemoveAll(g.logDir)
	return err
}

// churnRun is the state of one churn workload run.
type churnRun struct {
	o       options
	cfg     churnConfig
	out     *outcome
	tr      *tracer
	cur     inflight
	install *recorder
	prove   *recorder
	netchk  *recorder

	r       *rand.Rand // client event stream
	parser  *subscription.Parser
	filters []*churnFilter
	live    []int // keys of live filters
	warm    []replayStep
	steps   []replayStep
	g       *rig
	client  *thread
	hs      *hostSpeed
	// setupPause is the time a set-up spent sampling host speed.
	setupPause time.Duration
	reqID      uint64
	phases     int64
}

func runChurn(o options, tr *tracer, certified bool) (*outcome, error) {
	cfg := churnConfig{registry: 300, hosts: 16, warmBatch: 24, slack: 8, setups: 5}
	if certified {
		cfg = churnConfig{registry: 24, hosts: 8, warmBatch: 12, slack: 2, certified: true, setups: 3}
	}
	c := &churnRun{o: o, cfg: cfg, tr: tr,
		out:    &outcome{e2e: map[string]metric{}, layer: map[string]metric{}},
		parser: subscription.NewParser(formats.ITCH),
	}
	c.install = &recorder{name: "pipeline.Install", tr: tr, cur: &c.cur}
	c.prove = &recorder{name: "analysis.ProveValidator", tr: tr, cur: &c.cur}
	c.netchk = &recorder{name: "analysis.NetcheckValidator", tr: tr, cur: &c.cur}
	c.client = tr.thread()
	runDir := filepath.Join(o.workDir, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(runDir)

	hs, err := newHostSpeed()
	if err != nil {
		return nil, err
	}
	c.hs = hs
	// Set-up, repeated: deploy, daemon start, registry warm-up. setup_s
	// is the median of the set-ups, each at the host speed sampled just
	// before and after it and between warm-up requests; the samples'
	// time is taken out of the set-up's.
	if o.setups <= 0 {
		o.setups = cfg.setups
	}
	var setups, rawSetups, deploys []float64
	for i := 0; i < o.setups; i++ {
		if c.g != nil {
			if err := c.g.close(); err != nil {
				return nil, err
			}
		}
		c.r = rand.New(rand.NewSource(o.seed))
		c.filters, c.live, c.warm = nil, nil, nil
		hs.reset()
		hs.samples(setupSamples - 1)
		c.setupPause = 0
		t0 := time.Now()
		g, dep, err := c.startRig(filepath.Join(runDir, fmt.Sprintf("setup-%d", i)))
		if err != nil {
			return nil, err
		}
		c.g = g
		if err := c.warmUp(); err != nil {
			g.close()
			return nil, err
		}
		g.d.Service().Quiesce()
		raw := (time.Since(t0) - c.setupPause).Seconds()
		hs.samples(setupSamples)
		rawSetups = append(rawSetups, raw)
		setups = append(setups, raw*hs.factor())
		deploys = append(deploys, dep.Seconds())
	}
	defer func() {
		if c.g != nil {
			c.g.close()
		}
	}()
	runtime.GC()

	total := time.Duration(o.seconds * float64(time.Second))
	warm := min(time.Second, total/5)
	c.phase(warm, false)
	lines := []string{fmt.Sprintf("%s: fat-tree(4) %d switches, %d hosts, routing tr α=0, durable log on, verifiers %s; registry %d live filters, %d tenants",
		o.workload, len(c.g.net.Switches), len(c.g.net.Hosts), map[bool]string{true: "prove every 16th batch + netcheck every quiescent point", false: "off"}[cfg.certified],
		len(c.live), churnTenants)}
	if !o.trace {
		ph := c.phase(total, false)
		c.finalCheck()
		ppct, ptail := ph.pub.tail()
		upct, utail := ph.req.tail()
		k := ph.speed
		setE2E(c.out, median(setups), ph.heapMB(), ph.rate()/k, ph.req.p50us()*k, utail*k)
		setPub(c.out, ph.pub.p50us()*k, ptail*k)
		c.out.lines = append(lines,
			fmt.Sprintf("host speed %.4g of reference during load; figures below are measured (at reference speed)", k),
			fmt.Sprintf("update_rate = %.6g 1/s (%.6g) (%d acknowledged in %.3fs, %.3fs of it sampling host speed)",
				ph.rate(), ph.rate()/k, ph.acked, ph.wall.Seconds(), ph.hostBusy.Seconds()),
			fmt.Sprintf("update_p50_ms = %.6g ms (%.6g)", ph.req.p50us()/1e3, ph.req.p50us()*k/1e3),
			fmt.Sprintf("update_tail_ms = %.6g ms (%.6g) (p%.1f, %d samples)", utail/1e3, utail*k/1e3, upct, ph.req.n()),
			fmt.Sprintf("pub_p50_us = %.6g us (%.6g)", ph.pub.p50us(), ph.pub.p50us()*k),
			fmt.Sprintf("pub_tail_us = %.6g us (%.6g) (p%.1f, %d samples; %d publications per batch every %v, open loop)", ptail, ptail*k, ppct, ph.pub.n(), pubBatch, pubInterval),
			ph.late.describe("publisher lateness"),
			fmt.Sprintf("setup_s = %.6g s (%.6g) (median of %d)", median(rawSetups), median(setups), len(setups)),
			fmt.Sprintf("heap_peak_mb = %.6g MB", ph.heapMB()))
		return c.out, nil
	}

	// The traced half runs first, so the service's event→applied
	// latency (kept since the daemon started) covers mostly the same
	// requests as the client's.
	c.install.reset()
	c.prove.reset()
	c.netchk.reset()
	tr.on.Store(true)
	ph := c.phase(total/2, true)
	tr.on.Store(false)
	stats, err := c.statsLatencyP50()
	if err != nil {
		return nil, err
	}
	m := c.out.layer
	set := func(name string, v float64, unit string) { setMetric(m, name, v, unit) }
	up := float64(ph.acked)
	sn := ph.svc
	set("server.overhead_p50_ms", ph.req.p50us()/1e3-stats, "ms")
	set("ctlplane.apply_p50_ms", stats, "ms")
	set("ctlplane.batches_per_update", ratio(float64(sn.Batches), up), "count")
	set("ctlplane.full_rebuild_ratio", ratio(float64(sn.Fallbacks), float64(sn.Batches)), "ratio")
	set("ctlplane.entry_reuse_ratio", ratio(float64(sn.Keeps), float64(sn.Installs+sn.Keeps)), "ratio")
	set("ctlplane.entries_touched_per_update", ratio(float64(sn.Installs+sn.Deletes), up), "count")
	_, inst := c.install.snapshot()
	set("pipeline.install_us", inst*1e3, "us")
	nn, nms := c.netchk.snapshot()
	_, pms := c.prove.snapshot()
	set("analysis.netcheck_ms_p50", nms, "ms")
	set("analysis.netchecks_per_update", ratio(float64(nn), up), "count")
	set("analysis.prove_ms_p50", pms, "ms")
	set("netsim.publish_us_per_pub", ratio(float64(ph.publishNs)/1e3, float64(ph.pubs)), "us")
	set("netsim.hops_per_pub", ratio(float64(ph.hops), float64(ph.pubs)), "count")
	lpct, late := ph.late.tail()
	set("load.pub_lateness_tail_us", late, "us")
	set("controller.deploy_s", median(deploys), "s")
	setPipelineLayer(c.out, ph.sw)
	untraced := c.phase(total/2, false)
	c.finalCheck()
	setTraceLayer(c.out, tr, untraced.rate()/untraced.speed, ph.rate()/ph.speed, ph.wall, c.client)
	if err := c.replay(); err != nil {
		return nil, err
	}
	c.out.lines = append(lines,
		fmt.Sprintf("untraced half %.6g updates/s, traced half %.6g updates/s (at reference host speed)", untraced.rate()/untraced.speed, ph.rate()/ph.speed),
		fmt.Sprintf("publisher lateness p%.1f %.4g us", lpct, late))
	return c.out, nil
}

// setPub fills the publication-latency contract metrics.
func setPub(out *outcome, p50us, tailUs float64) {
	setMetric(out.e2e, "pub_p50_us", p50us, "us")
	setMetric(out.e2e, "pub_tail_us", tailUs, "us")
}

// startRig deploys an empty fat-tree(4), builds the simulated switches
// and starts camusd's HTTP API on loopback.
func (c *churnRun) startRig(logDir string) (*rig, time.Duration, error) {
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, 0, err
	}
	net := topology.MustFatTree(4)
	t0 := time.Now()
	dep, err := controller.Deploy(net, formats.ITCH, make([][]subscription.Expr, len(net.Hosts)),
		controller.Options{Routing: churnRouting})
	if err != nil {
		return nil, 0, err
	}
	deploy := time.Since(t0)
	sim, err := netsim.New(dep)
	if err != nil {
		return nil, 0, err
	}
	ins := make([]ctlplane.Installer, len(sim.Switches))
	for i, sw := range sim.Switches {
		ins[i] = &timedInstaller{sw: sw, rec: c.install}
	}
	svc := []ctlplane.Option{
		ctlplane.WithRouting(churnRouting),
		ctlplane.WithInstallers(ins...),
		ctlplane.WithQueueDepth(1024),
		ctlplane.WithSeed(c.o.seed),
	}
	if c.cfg.certified {
		prove := ctlplane.ProveValidator(net, 0)
		netchk := ctlplane.NetcheckValidator(net, formats.ITCH, 0)
		svc = append(svc,
			ctlplane.WithValidator(func(sw int, p *compiler.Program, rules []*subscription.Rule) error {
				s := time.Now()
				err := prove(sw, p, rules)
				c.prove.observe(s, time.Now())
				return err
			}, 16),
			ctlplane.WithNetValidator(func(progs []*compiler.Program, fs []ctlplane.HostFilter) error {
				s := time.Now()
				err := netchk(progs, fs)
				c.netchk.observe(s, time.Now())
				return err
			}, 1))
	}
	d, err := server.New(net, formats.ITCH,
		server.WithEventLog(filepath.Join(logDir, "events.log")),
		server.WithService(svc...),
		server.WithTenancy(ctlplane.WithAutoCreate()))
	if err != nil {
		return nil, 0, err
	}
	addr, err := d.Start("127.0.0.1:0")
	if err != nil {
		d.Close()
		return nil, 0, err
	}
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return &rig{net: net, sim: sim, d: d, base: "http://" + addr, client: client, logDir: logDir}, deploy, nil
}

// catalogFilter is slot i of the filter catalog, a §VIII-F3-shaped
// subscription (stock == S and price > P).
// Slots map one to one onto (symbol, threshold) pairs (25 and 12 are
// coprime), so the first slots already mix thresholds.
// The catalog is the same for every seed; the seed decides which slots
// are live when, under which tenant, and the traffic. So the registry's
// shape — and its compile and verify cost — does not drift with the
// seed or over a run.
func catalogFilter(i int) string {
	return fmt.Sprintf("stock == %s and price > %d", symbol(i%churnSymbols), 100*(i*7%12))
}

// newFilter subscribes catalog slot for tenant t at the slot's host.
func (c *churnRun) newFilter(slot, t int) int {
	expr, err := c.parser.ParseFilter(catalogFilter(slot))
	if err != nil {
		panic(err)
	}
	c.filters = append(c.filters, &churnFilter{slot: slot, tenant: fmt.Sprintf("tenant-%02d", t),
		host: slot % c.cfg.hosts, src: catalogFilter(slot), expr: expr})
	return len(c.filters) - 1
}

// warmUp subscribes every catalog slot through the API: one request per
// host (at most warmBatch filters each), from a random tenant.
func (c *churnRun) warmUp() error {
	hosts := c.cfg.hosts
	for h := 0; h < hosts; h++ {
		var slots []int
		for s := h; s < c.cfg.registry; s += hosts {
			slots = append(slots, s)
		}
		for len(slots) > 0 {
			if c.hs.due() {
				c.setupPause += c.hs.sample()
			}
			n := min(len(slots), c.cfg.warmBatch)
			t := c.r.Intn(churnTenants)
			keys := make([]int, n)
			for i, s := range slots[:n] {
				keys[i] = c.newFilter(s, t)
			}
			if err := c.subscribe(keys); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			c.warm = append(c.warm, replayStep{add: true, warm: true, keys: keys})
			slots = slots[n:]
		}
	}
	return nil
}

type apiResponse struct {
	IDs     []int `json:"ids"`
	Applied bool  `json:"applied"`
}

// call sends one JSON request and decodes a 200 response.
func (c *churnRun) call(method, path string, body any) (*apiResponse, error) {
	buf, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequest(method, c.g.base+path, bytes.NewReader(buf))
	if err != nil {
		return nil, err
	}
	resp, err := c.g.client.Do(req)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, raw)
	}
	var out apiResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		return nil, err
	}
	if !out.Applied {
		return nil, fmt.Errorf("%s %s: acknowledged without apply", method, path)
	}
	return &out, nil
}

// subscribe adds filters of one (tenant, host) in one request.
func (c *churnRun) subscribe(keys []int) error {
	f0 := c.filters[keys[0]]
	srcs := make([]string, len(keys))
	for i, k := range keys {
		srcs[i] = c.filters[k].src
	}
	resp, err := c.call(http.MethodPost, "/v1/tenants/"+f0.tenant+"/subscriptions",
		map[string]any{"host": f0.host, "filters": srcs})
	if err != nil {
		return err
	}
	if len(resp.IDs) != len(keys) {
		return fmt.Errorf("subscribe returned %d ids for %d filters", len(resp.IDs), len(keys))
	}
	for i, k := range keys {
		c.filters[k].id = resp.IDs[i]
		c.live = append(c.live, k)
	}
	return nil
}

// freeSlot picks a random catalog slot with no live filter.
func (c *churnRun) freeSlot() int {
	used := make([]bool, c.cfg.registry)
	for _, k := range c.live {
		used[c.filters[k].slot] = true
	}
	var free []int
	for s, u := range used {
		if !u {
			free = append(free, s)
		}
	}
	return free[c.r.Intn(len(free))]
}

// unsubscribe removes the live filter at index i of c.live.
func (c *churnRun) unsubscribe(i int) error {
	k := c.live[i]
	f := c.filters[k]
	if _, err := c.call(http.MethodDelete, "/v1/tenants/"+f.tenant+"/subscriptions",
		map[string]any{"host": f.host, "ids": []int{f.id}}); err != nil {
		return err
	}
	c.live[i] = c.live[len(c.live)-1]
	c.live = c.live[:len(c.live)-1]
	return nil
}

// churnPhase is the measurement of one timed phase.
type churnPhase struct {
	wall      time.Duration
	acked     int64
	req       latencies
	pub       latencies
	late      latencies
	pubs      int64
	hops      int64
	publishNs int64
	heap      [2]*heapPeak
	// speed is the host's speed during the phase (hostSpeed.factor);
	// hostBusy is the client's time in its samples.
	speed    float64
	hostBusy time.Duration
	svc      ctlplane.Snapshot
	sw       pipeline.StatsSnapshot
}

func (p *churnPhase) rate() float64 { return ratio(float64(p.acked), (p.wall - p.hostBusy).Seconds()) }

func (p *churnPhase) heapMB() float64 { return max(p.heap[0].mb(), p.heap[1].mb()) }

// phase runs the closed-loop client for dur while the open-loop
// publisher injects traffic.
func (c *churnRun) phase(dur time.Duration, traced bool) *churnPhase {
	ph := &churnPhase{heap: [2]*heapPeak{newHeapPeak(), newHeapPeak()}}
	svc0, sw0, link0 := c.g.d.Service().Stats(), c.switchStats(), c.linkPackets()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c.publish(stop, ph)
	}()
	th := c.client
	c.hs.reset()
	start := time.Now()
	deadline := start.Add(dur)
	for time.Now().Before(deadline) {
		if c.hs.due() {
			th.begin("bench.hostspeed", 0)
			ph.hostBusy += c.hs.sample()
			th.end()
		}
		ph.heap[0].sample()
		add := len(c.live) <= c.cfg.registry-c.cfg.slack ||
			(len(c.live) < c.cfg.registry && c.r.Intn(2) == 0)
		c.reqID++
		var step replayStep
		var err error
		var t0 time.Time
		if add {
			k := c.newFilter(c.freeSlot(), c.r.Intn(churnTenants))
			step = replayStep{add: true, keys: []int{k}}
			t0 = time.Now()
			c.beginReq(th, "server.subscribe")
			err = c.subscribe([]int{k})
		} else {
			i := c.r.Intn(len(c.live))
			step = replayStep{keys: []int{c.live[i]}}
			t0 = time.Now()
			c.beginReq(th, "server.unsubscribe")
			err = c.unsubscribe(i)
		}
		c.cur.span.Store(0)
		th.end()
		lat := time.Since(t0)
		c.out.attempted++
		if err != nil {
			c.out.mismatch("%v", err)
			continue
		}
		ph.acked++
		ph.req.add(lat)
		c.steps = append(c.steps, step)
	}
	ph.wall = time.Since(start)
	ph.speed = c.hs.factor()
	close(stop)
	wg.Wait()
	svc1 := c.g.d.Service().Stats()
	ph.svc = ctlplane.Snapshot{
		Batches: svc1.Batches - svc0.Batches, Fallbacks: svc1.Fallbacks - svc0.Fallbacks,
		Installs: svc1.Installs - svc0.Installs, Deletes: svc1.Deletes - svc0.Deletes,
		Keeps: svc1.Keeps - svc0.Keeps,
	}
	ph.sw = statsDelta(c.switchStats(), sw0)
	ph.hops = c.linkPackets() - link0
	return ph
}

func (c *churnRun) beginReq(th *thread, name string) {
	if id := th.begin(name, c.reqID); id != 0 {
		c.cur.req.Store(c.reqID)
		c.cur.span.Store(id)
	}
}

// publish is the open-loop publisher: every pubInterval it sends a batch
// of pubBatch publications. A batch's latency is its PublishBatch call;
// how late the publisher woke for the batch's scheduled send time is
// kept apart as lateness. While the daemon compiles on every core the
// publisher's timer fires milliseconds late, and that delay — the
// generator's, not the dataplane's — would otherwise swamp the call.
func (c *churnRun) publish(stop <-chan struct{}, ph *churnPhase) {
	th := c.tr.thread()
	c.phases++
	r := rand.New(rand.NewSource(c.o.seed*31 + c.phases))
	hosts := len(c.g.net.Hosts)
	pubs := make([]netsim.Publication, pubBatch)
	start := time.Now()
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * pubInterval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		select {
		case <-stop:
			return
		default:
		}
		ph.late.add(time.Since(due))
		ph.heap[1].sample()
		for i := range pubs {
			pubs[i] = netsim.Publication{Host: r.Intn(hosts), Msgs: []*spec.Message{randomOrder(r).Message()}, Bytes: 64}
		}
		th.begin("netsim.PublishBatch", 0)
		t0 := time.Now()
		c.g.sim.PublishBatch(pubs)
		took := time.Since(t0)
		th.end()
		ph.publishNs += int64(took)
		ph.pub.add(took)
		ph.pubs += pubBatch
	}
}

// randomOrder draws a publication with the filters' symbol skew.
func randomOrder(r *rand.Rand) *formats.Order {
	return &formats.Order{
		Stock:  symbol(int(float64(churnSymbols) * r.Float64() * r.Float64())),
		Price:  int64(r.Intn(1000)),
		Shares: 100 * int64(1+r.Intn(10)),
		Buy:    r.Intn(2) == 0,
	}
}

func (c *churnRun) switchStats() pipeline.StatsSnapshot {
	var t pipeline.StatsSnapshot
	for _, sw := range c.g.sim.Switches {
		s := sw.Stats()
		t.Packets += s.Packets
		t.Messages += s.Messages
		t.Matched += s.Matched
		t.Deliveries += s.Deliveries
		t.Recirculations += s.Recirculations
		t.LeafHits += s.LeafHits
		t.LeafMisses += s.LeafMisses
		t.LeafFills += s.LeafFills
	}
	return t
}

func (c *churnRun) linkPackets() int64 {
	var n int64
	for _, v := range c.g.sim.Traffic().LinkPackets {
		n += v
	}
	return n
}

// statsLatencyP50 reads the service's event→applied median from
// GET /v1/stats.
func (c *churnRun) statsLatencyP50() (float64, error) {
	resp, err := c.g.client.Get(c.g.base + "/v1/stats")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var st struct {
		Latency struct {
			P50Ms float64 `json:"p50_ms"`
		} `json:"latency"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	return st.Latency.P50Ms, nil
}

// finalCheck quiesces the daemon and compares it with the client's own
// registry: the live (filter, host) set, the service's failure counters,
// and a batch of probe publications against the AST evaluator. Then it
// stops the daemon.
func (c *churnRun) finalCheck() {
	svc := c.g.d.Service()
	svc.Quiesce()
	st := svc.Stats()
	if st.Failures != 0 || st.ValidationFailures != 0 || st.NetValidationFailures != 0 {
		c.out.mismatch("service reports %d apply failures, %d validation failures, %d net validation failures",
			st.Failures, st.ValidationFailures, st.NetValidationFailures)
	}
	want := map[int]int{}
	for _, k := range c.live {
		want[c.filters[k].id] = c.filters[k].host
	}
	got := svc.HostFilters()
	if len(got) != len(want) {
		c.out.mismatch("daemon holds %d live filters, client registry %d", len(got), len(want))
	}
	for _, hf := range got {
		if h, ok := want[hf.ID]; !ok || h != hf.Host {
			c.out.mismatch("daemon filter %d on host %d is not in the client registry", hf.ID, hf.Host)
			break
		}
	}
	r := rand.New(rand.NewSource(c.o.seed*131 + 7))
	hosts := len(c.g.net.Hosts)
	pubs := make([]netsim.Publication, probes)
	for i := range pubs {
		pubs[i] = netsim.Publication{Host: r.Intn(hosts), Msgs: []*spec.Message{randomOrder(r).Message()}, Bytes: 64}
	}
	res := c.g.sim.PublishBatch(pubs)
	c.out.attempted += probes
	for i, p := range pubs {
		expect := map[int]bool{}
		for _, k := range c.live {
			f := c.filters[k]
			if f.host != p.Host && subscription.EvalExpr(f.expr, p.Msgs[0], nil) {
				expect[f.host] = true
			}
		}
		copies := map[int]int{}
		for _, d := range res[i] {
			copies[d.Host] += len(d.Msgs)
		}
		ok := len(copies) == len(expect)
		for h := range expect {
			ok = ok && copies[h] == 1
		}
		if !ok {
			c.out.mismatch("probe %d from host %d: delivered %v, reference hosts %v", i, p.Host, copies, sortedKeys(expect))
		}
	}
	if err := c.g.close(); err != nil {
		c.out.mismatch("daemon close: %v", err)
	}
	c.g = nil
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// replay runs the acknowledged request stream through a fresh reconciler
// with the daemon's options, compiling each switch's ops at the compiler
// boundary and installing the result, so compile time is measured where
// it happens. With one client the daemon applied the same per-switch
// sequence.
func (c *churnRun) replay() error {
	net := topology.MustFatTree(4)
	rec, err := ctlplane.NewReconcilerWith(net, formats.ITCH, ctlplane.WithRouting(churnRouting), ctlplane.WithSeed(c.o.seed))
	if err != nil {
		return err
	}
	dep, err := controller.Deploy(net, formats.ITCH, make([][]subscription.Expr, len(net.Hosts)),
		controller.Options{Routing: churnRouting})
	if err != nil {
		return err
	}
	sim, err := netsim.New(dep)
	if err != nil {
		return err
	}
	th := c.tr.thread()
	c.tr.on.Store(true)
	defer c.tr.on.Store(false)
	ac := newAllocCounter()
	ids := map[int]int{}
	var inc, full latencies
	var entries []float64
	var allocB uint64
	var updates int
	for _, st := range append(append([]replayStep(nil), c.warm...), c.steps...) {
		var ops []ctlplane.RuleOp
		for _, k := range st.keys {
			f := c.filters[k]
			if st.add {
				id, o, err := rec.AddFilter(f.host, f.expr)
				if err != nil {
					return err
				}
				ids[k] = id
				ops = append(ops, o...)
			} else {
				o, err := rec.RemoveFilter(f.host, ids[k])
				if err != nil {
					return err
				}
				ops = append(ops, o...)
			}
		}
		bySw := map[int][]ctlplane.RuleOp{}
		for _, op := range ops {
			bySw[op.Switch] = append(bySw[op.Switch], op)
		}
		sws := make([]int, 0, len(bySw))
		for sw := range bySw {
			sws = append(sws, sw)
		}
		sort.Ints(sws)
		if !st.warm {
			updates++
			th.begin("bench.replay_update", 0)
		}
		for _, sw := range sws {
			_, b0 := ac.read()
			if !st.warm {
				th.begin("compiler.Compile", 0)
			}
			t0 := time.Now()
			res, err := rec.Compile(sw, bySw[sw])
			dt := time.Since(t0)
			if !st.warm {
				th.end()
			}
			if err != nil {
				return err
			}
			_, b1 := ac.read()
			if !st.warm {
				allocB += b1 - b0
				entries = append(entries, float64(res.Program.TotalEntries()))
				if res.Full {
					full.add(dt)
				} else {
					inc.add(dt)
				}
			}
			if err := sim.Switches[sw].Install(res.Program); err != nil {
				return err
			}
		}
		if !st.warm {
			th.end()
		}
	}
	m := c.out.layer
	setMetric(m, "compiler.incremental_ms_p50", inc.p50us()/1e3, "ms")
	setMetric(m, "compiler.full_rebuild_ms_p50", full.p50us()/1e3, "ms")
	setMetric(m, "compiler.alloc_mb_per_update", ratio(float64(allocB)/(1<<20), float64(updates)), "MB")
	setMetric(m, "compiler.program_entries", median(entries), "count")
	return nil
}
