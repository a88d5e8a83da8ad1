package pipeline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"camus/internal/compiler"
	"camus/internal/spec"
	"camus/internal/subscription"
)

// Packet is a network packet traversing the switch: one or more
// application messages batched into a single datagram (e.g. MoldUDP
// carrying several ITCH messages, §VI).
type Packet struct {
	// In is the ingress port.
	In int
	// Msgs are the decoded application messages, in wire order.
	Msgs []*spec.Message
	// Bytes is the wire size (for traffic accounting); zero is allowed.
	Bytes int
	// Flow optionally identifies the packet's stream for stream
	// subscriptions (§VII-B). The first packet of a flow carries the
	// application header (Msgs non-empty) and installs the flow's
	// forwarding decision; header-less continuation packets (Msgs empty,
	// Flow set) reuse it.
	Flow FlowKey
}

// Delivery is one egress packet: the replica for a port after per-port
// message pruning (§VI-A).
type Delivery struct {
	// Port is the egress port.
	Port int
	// Msgs are the messages that matched subscriptions on this port, in
	// wire order (the pruned replica).
	Msgs []*spec.Message
	// Latency is the switch transit time for this replica, including
	// recirculation passes.
	Latency time.Duration
}

// CustomActionFunc handles a non-fwd action (e.g. answerDNS). It may
// return extra deliveries (crafted response packets). Handlers run on
// whichever worker shard processes the packet, so they must be safe for
// concurrent invocation when the switch runs more than one worker.
type CustomActionFunc func(act subscription.Action, m *spec.Message, pkt *Packet) []Delivery

// Config tunes the switch model: DefaultConfig plus the Options passed
// to NewSwitch, frozen into the switch at construction.
type Config struct {
	// BaseLatency is the one-pass pipeline transit time. The paper
	// reports pipeline latency under 1µs (§VIII-F1).
	BaseLatency time.Duration
	// RecirculationLatency is the added cost of one recirculation pass.
	RecirculationLatency time.Duration
	// DropOnIngressPort suppresses forwarding a packet back out its
	// ingress port (standard switch behaviour; Algorithm 1's "other than
	// the ingress port").
	DropOnIngressPort bool
	// FlowCacheSize bounds the stream-subscription cache (§VII-B),
	// totalled across worker shards; 0 uses the default (65536 flows).
	FlowCacheSize int
	// FlowTTL expires idle streams; 0 uses the default (30s).
	FlowTTL time.Duration
	// Workers is the number of dataplane shards ProcessBatch fans out
	// across; 0 or 1 selects the sequential single-shard dataplane.
	Workers int
	// LeafCacheSize bounds the hot-rule leaf cache (DESIGN.md §16),
	// totalled across worker shards and rounded up to a power of two
	// per shard; 0 uses the default (65536 entries), negative disables
	// the cache.
	LeafCacheSize int
}

// DefaultConfig returns the Tofino-like defaults.
func DefaultConfig() Config {
	return Config{
		BaseLatency:          600 * time.Nanosecond,
		RecirculationLatency: 400 * time.Nanosecond,
		DropOnIngressPort:    true,
	}
}

// epoch is one immutable (Program, StateTable) generation. Install
// publishes a new epoch with a single atomic pointer swap, so packet
// workers always observe a consistent program/state pair and never a
// half-updated switch.
type epoch struct {
	gen   uint64
	prog  *compiler.Program
	state *StateTable
	// leaf is the precomputed leaf-cache key layout and admissibility
	// summary for prog, or nil when the cache cannot serve it. It is
	// derived once per Install so the packet path never inspects the
	// program structure (let alone the BDD).
	leaf *leafMeta
}

// leafMeta is the per-epoch leaf-cache admissibility set: which stages
// participate in the cache key, which subscribable indices feed the
// key slots, and how many leaf rows are cacheable. Recomputed on every
// Install (the epoch swap is what invalidates the cache, via the
// generation tag).
type leafMeta struct {
	// keyStage marks, per pipeline stage, whether a taken transition
	// keeps a walk pure: stages matching a key packet field or a header
	// validity bit (both captured by the cache key). See
	// Program.LookupKeyed.
	keyStage []bool
	// keyIdx are the subscribable field indices backing the key slots.
	keyIdx [LeafKeySlots]int32
	nslots int
	// admissible counts leaf rows whose outcomes are cacheable.
	admissible int
}

// newEpoch assembles an epoch, precomputing the leaf-cache metadata.
func newEpoch(gen uint64, prog *compiler.Program, state *StateTable) *epoch {
	return &epoch{gen: gen, prog: prog, state: state, leaf: buildLeafMeta(prog)}
}

// buildLeafMeta derives the leaf-cache key layout for a program, or
// nil when the spec cannot be keyed (no packable fields, or more
// headers than the validity mask holds).
func buildLeafMeta(prog *compiler.Program) *leafMeta {
	sp := prog.Spec
	if len(sp.Headers) > 64 {
		return nil
	}
	keyFields := LeafKeyFields(sp)
	if len(keyFields) == 0 {
		return nil
	}
	lm := &leafMeta{nslots: len(keyFields)}
	isKey := make(map[*spec.Field]bool, len(keyFields))
	for s, f := range keyFields {
		idx, ok := sp.SubscribableIndex(f)
		if !ok {
			return nil
		}
		lm.keyIdx[s] = int32(idx)
		isKey[f] = true
	}
	lm.keyStage = make([]bool, len(prog.Stages))
	for i, t := range prog.Stages {
		switch t.Field.Ref.Kind {
		case subscription.PacketRef:
			lm.keyStage[i] = isKey[t.Field.Ref.Field]
		case subscription.ValidityRef:
			lm.keyStage[i] = true
		}
	}
	for _, le := range prog.Leaf {
		if leafAdmissible(le) {
			lm.admissible++
		}
	}
	return lm
}

// leafAdmissible reports whether a leaf row's outcome may be cached:
// stateless (no register updates), no custom actions, and a port set
// that fits the inline entry.
func leafAdmissible(le *compiler.LeafEntry) bool {
	return len(le.Updates) == 0 && len(le.Actions.Custom) == 0 &&
		len(le.Actions.Ports) <= LeafMaxPorts
}

// Switch is a software Camus switch: a static pipeline bound to a
// compiled program, with stateful registers and custom action handlers.
//
// The dataplane is sharded: each worker shard owns a private flow-cache
// partition and stats block, flows hash to a fixed shard, and the
// installed (Program, StateTable) pair is swapped atomically by
// Install. Process and ProcessBatch may therefore be called from many
// goroutines concurrently, including concurrently with Install.
// Configuration (SetParser, HandleCustom) is not synchronized and must
// complete before traffic starts.
type Switch struct {
	// ID names the switch (diagnostics, netsim).
	ID string

	static  *compiler.StaticPipeline
	cfg     Config
	epoch   atomic.Pointer[epoch]
	shards  []*shard
	customs map[string]CustomActionFunc
	parser  Parser

	// installMu serializes control-plane updates (Install) so epoch
	// generations advance monotonically.
	installMu sync.Mutex

	// batch is the reusable ProcessBatch workspace (result and
	// partition buffers); see the ProcessBatch reuse contract.
	batch batchScratch
}

// NewSwitch builds a switch from a static pipeline (nil for none) and a
// compiled program, configured by DefaultConfig plus functional
// options — the one supported way to configure a dataplane.
func NewSwitch(id string, static *compiler.StaticPipeline, prog *compiler.Program, opts ...Option) (*Switch, error) {
	if prog == nil {
		return nil, fmt.Errorf("pipeline: NewSwitch: nil program")
	}
	if static != nil {
		if err := static.Validate(prog); err != nil {
			return nil, err
		}
	}
	cfg := DefaultConfig()
	for _, fn := range opts {
		fn(&cfg)
	}
	cfg = cfg.normalize()
	s := &Switch{
		ID:      id,
		static:  static,
		cfg:     cfg,
		customs: make(map[string]CustomActionFunc),
	}
	perShard := (cfg.FlowCacheSize + cfg.Workers - 1) / cfg.Workers
	perLeaf := 0
	if cfg.LeafCacheSize > 0 {
		perLeaf = (cfg.LeafCacheSize + cfg.Workers - 1) / cfg.Workers
	}
	s.shards = make([]*shard, cfg.Workers)
	for i := range s.shards {
		sh := &shard{flows: newFlowCache(perShard, cfg.FlowTTL)}
		if perLeaf > 0 {
			sh.leaf = newLeafCache(perLeaf)
		}
		s.shards[i] = sh
	}
	s.epoch.Store(newEpoch(0, prog, NewStateTable(prog)))
	return s, nil
}

// Config returns a copy of the switch's frozen configuration.
func (s *Switch) Config() Config { return s.cfg }

// Workers reports the number of dataplane shards.
func (s *Switch) Workers() int { return len(s.shards) }

// Program returns the currently-installed dynamic configuration.
func (s *Switch) Program() *compiler.Program { return s.epoch.Load().prog }

// State returns the stateful registers of the current epoch.
func (s *Switch) State() *StateTable { return s.epoch.Load().state }

// Stats returns a snapshot of the dataplane counters, summed across
// worker shards.
func (s *Switch) Stats() StatsSnapshot {
	var t StatsSnapshot
	for _, sh := range s.shards {
		sh.mu.Lock()
		t = t.add(sh.stats)
		sh.mu.Unlock()
	}
	return t
}

// ResetStats zeroes every shard's counters.
func (s *Switch) ResetStats() {
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.stats = StatsSnapshot{}
		sh.mu.Unlock()
	}
}

// Install replaces the dynamic program (a control-plane rule update,
// §VIII-G3) with a single atomic epoch swap: in-flight packets finish
// against the epoch they loaded, later packets see the new program.
// Registers are re-linked; windows restart. Cached stream decisions
// were compiled from the outgoing program, so every flow-cache shard is
// invalidated — continuation packets re-miss until their stream's next
// header packet installs a fresh decision (fixes the stale §VII-B
// forwarding bug).
func (s *Switch) Install(prog *compiler.Program) error {
	if prog == nil {
		return fmt.Errorf("pipeline: Install: nil program")
	}
	if s.static != nil {
		if err := s.static.Validate(prog); err != nil {
			return err
		}
	}
	s.installMu.Lock()
	old := s.epoch.Load()
	s.epoch.Store(newEpoch(old.gen+1, prog, NewStateTable(prog)))
	s.installMu.Unlock()
	// Purge after the swap: any straggler still installing decisions
	// under the old epoch is defeated by the generation tag on cache
	// entries, so post-purge lookups can never observe a stale decision.
	// The leaf cache needs no purge at all for the same reason — every
	// entry carries the generation it was filled under and dies on
	// mismatch; the swap above is the invalidation.
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.flows.purge()
		sh.mu.Unlock()
	}
	return nil
}

// LeafCacheStats reports the leaf cache's cumulative counters and the
// current epoch's admissibility gauges. Separate from Stats because
// Admissible/Capacity are configuration-derived gauges, not resettable
// traffic counters.
func (s *Switch) LeafCacheStats() LeafCacheStats {
	var out LeafCacheStats
	ep := s.epoch.Load()
	for _, sh := range s.shards {
		if sh.leaf != nil {
			out.Capacity += len(sh.leaf.entries)
		}
		sh.mu.Lock()
		out.Hits += sh.stats.LeafHits
		out.Misses += sh.stats.LeafMisses
		out.Fills += sh.stats.LeafFills
		sh.mu.Unlock()
	}
	out.Enabled = out.Capacity > 0 && ep.leaf != nil
	if ep.leaf != nil {
		out.Admissible = ep.leaf.admissible
	}
	return out
}

// HandleCustom registers a handler for a custom action name. Call
// before traffic starts.
func (s *Switch) HandleCustom(name string, fn CustomActionFunc) {
	s.customs[name] = fn
}

// Process runs a packet through the pipeline at virtual time now and
// returns the egress deliveries. Safe for concurrent use; the packet is
// executed on the shard its flow hashes to (flow-less packets use
// shard 0 — use ProcessBatch to spread those across workers). It runs
// the same per-packet walk as ProcessBatch (see walk.packet), but the
// returned deliveries are heap-fresh: callers may keep them.
func (s *Switch) Process(pkt *Packet, now time.Duration) []Delivery {
	var out [1][]Delivery
	s.runShard(s.shards[s.shardIndex(pkt.Flow)], []*Packet{pkt}, nil, out[:], now, true)
	return out[0]
}

// EvalMessage evaluates a single message (diagnostics / examples).
func (s *Switch) EvalMessage(m *spec.Message, now time.Duration) subscription.ActionSet {
	ep := s.epoch.Load()
	return ep.prog.Eval(m, ep.state.At(now))
}

func (s *Switch) String() string {
	prog := s.Program()
	return fmt.Sprintf("switch %s: %d stages, %d entries, %s",
		s.ID, len(prog.Stages)+1, prog.TotalEntries(), prog.Resources)
}
