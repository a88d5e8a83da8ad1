package pipeline

// StatsSnapshot is an immutable copy of the dataplane counters,
// aggregated across all worker shards at read time. Obtain one via
// Switch.Stats(); the zero value is an empty snapshot. Each shard
// keeps its own counters in one, guarded by the shard lock.
type StatsSnapshot struct {
	Packets        int64 // packets processed
	Messages       int64 // messages evaluated
	Matched        int64 // messages matching ≥1 subscription
	Deliveries     int64 // egress replicas emitted
	Recirculations int64 // extra parser passes (§VI-B)
	StateUpdates   int64 // register updates
	FlowHits       int64 // continuation packets served from the flow cache
	FlowMisses     int64 // continuation packets with no cached flow (dropped)
	LeafHits       int64 // messages served from the leaf cache (DESIGN.md §16)
	LeafMisses     int64 // messages that walked the match stages
	LeafFills      int64 // leaf-cache fills (pure, admissible outcomes)
	ParseErrors    int64 // raw packets the parser rejected
	BytesIn        int64
	BytesOut       int64
}

// add returns the element-wise sum of two snapshots.
func (a StatsSnapshot) add(b StatsSnapshot) StatsSnapshot {
	a.Packets += b.Packets
	a.Messages += b.Messages
	a.Matched += b.Matched
	a.Deliveries += b.Deliveries
	a.Recirculations += b.Recirculations
	a.StateUpdates += b.StateUpdates
	a.FlowHits += b.FlowHits
	a.FlowMisses += b.FlowMisses
	a.LeafHits += b.LeafHits
	a.LeafMisses += b.LeafMisses
	a.LeafFills += b.LeafFills
	a.ParseErrors += b.ParseErrors
	a.BytesIn += b.BytesIn
	a.BytesOut += b.BytesOut
	return a
}
