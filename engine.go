package sharqfec

import (
	"fmt"

	"sharqfec/internal/eventq"
	"sharqfec/internal/faults"
	"sharqfec/internal/netsim"
	"sharqfec/internal/scoping"
	"sharqfec/internal/simrand"
	"sharqfec/internal/stats"
	"sharqfec/internal/topology"
)

// engine is one run's simulated network and event loop; every Run*
// entry point builds it through newEngine. It partitions the topology
// by top-level zone (topology.PartitionByZone) onto a netsim.Cluster
// over an eventq.ShardGroup of Shards queues (Shards 0 means one), and
// its results are byte-identical at every shard count. Its concurrency
// discipline mirrors the cluster's: each agent lives on the shard
// owning its node and only ever runs there; per-shard accumulators
// (collectors, completion records) are merged after the run;
// everything that touches cross-shard state (joins, source start, fault
// events, census snapshots) goes through at, which places it on a
// ShardGroup.Sync barrier where every shard is quiescent.
type engine struct {
	spec  *topology.Spec
	h     *scoping.Hierarchy
	src   *simrand.Source
	grp   *eventq.ShardGroup
	nets  []*netsim.Network // one network view per shard
	owner []int32           // node → shard

	cols   []*stats.Collector // per-shard traffic collectors (BinWidth > 0)
	tracer *stats.Tracer
	tel    *telemetryRun
}

// newEngine builds the engine for one run of cfg.Topology, flattened to
// one zone unless scoped, and cloned when a fault plan mutates its
// links. From cfg it takes the seed, Shards and the optional sinks:
// QueueLimit, collectors when BinWidth > 0, TraceWriter and Telemetry.
// Telemetry, packet traces and adaptive rate control run on one shard
// only; with more, newEngine refuses them rather than silently dropping
// them.
func newEngine(cfg *DataConfig, scoped bool) (*engine, error) {
	if err := cfg.Telemetry.validate(); err != nil {
		return nil, err
	}
	if err := cfg.RateControl.validate(); err != nil {
		return nil, err
	}
	spec := cfg.Topology.spec
	if !scoped {
		spec = globalized(spec)
	}
	spec = cloneForFaults(spec, cfg.Faults)
	e := &engine{spec: spec}
	shards := max(cfg.Shards, 1)
	switch {
	case cfg.Shards < 0:
		return nil, fmt.Errorf("sharqfec: Shards = %d; want >= 0", cfg.Shards)
	case shards > 1 && cfg.Telemetry != nil:
		return nil, fmt.Errorf("sharqfec: telemetry is not supported with Shards > 1 (run sharded for speed or instrumented for depth, not both)")
	case shards > 1 && cfg.TraceWriter != nil:
		return nil, fmt.Errorf("sharqfec: packet traces are not supported with Shards > 1")
	case shards > 1 && cfg.RateControl != nil && cfg.RateControl.Mode == RateControlAdaptive:
		return nil, fmt.Errorf("sharqfec: adaptive rate control is not supported with Shards > 1")
	}
	// Partition on the topology's NATIVE zone layout even when the
	// protocol runs globalized (SRM, unscoped SHARQFEC variants):
	// administrative flattening changes packet scoping, not the
	// physical locality the partition exploits — and keeping the
	// partition config-independent means every protocol family
	// shares one owner map per (topology, shard count).
	var lookahead eventq.Duration
	e.owner, lookahead = topology.PartitionByZone(spec.Graph, cfg.Topology.spec.Zones, shards)
	if lookahead <= 0 {
		return nil, fmt.Errorf("sharqfec: topology %q has a zero-latency boundary link; cannot shard", spec.Name)
	}
	h, err := scoping.Build(spec.Zones)
	if err != nil {
		return nil, err
	}
	e.h = h
	e.src = simrand.New(cfg.Seed)
	e.grp = eventq.NewShardGroup(shards, lookahead)
	cluster, err := netsim.NewCluster(e.grp, spec.Graph, h, e.src, e.owner)
	if err != nil {
		return nil, err
	}
	for i := 0; i < shards; i++ {
		n := cluster.Shard(i)
		n.QueueLimit = cfg.QueueLimit
		e.nets = append(e.nets, n)
	}
	if cfg.BinWidth > 0 {
		for _, n := range e.nets {
			col := stats.NewCollector(spec.Source, len(spec.Receivers), cfg.BinWidth)
			n.AddTap(col.Tap())
			n.AddSendTap(col.SendTap())
			e.cols = append(e.cols, col)
		}
	}
	if cfg.TraceWriter != nil {
		e.tracer = stats.NewTracer(cfg.TraceWriter)
		e.nets[0].AddTap(e.tracer.Tap())
		e.nets[0].AddSendTap(e.tracer.SendTap())
	}
	if e.tel = startTelemetry(cfg.Telemetry, e.grp.Queue(0), h, spec.Graph.NumNodes(), cfg.Until); e.tel != nil {
		e.nets[0].SetTelemetry(e.tel.bus)
	}
	return e, nil
}

// shard returns the shard owning node v.
func (e *engine) shard(v topology.NodeID) int { return int(e.owner[v]) }

// net returns the network view of the shard owning node v.
func (e *engine) net(v topology.NodeID) *netsim.Network { return e.nets[e.shard(v)] }

// at schedules fn at virtual time t on a sync barrier. Callers may use
// it before the run or from inside another at callback, never from an
// agent's event handler.
func (e *engine) at(t eventq.Time, fn func(now eventq.Time)) { e.grp.Sync(t, fn) }

// run advances the simulation to until seconds and flushes the packet
// trace.
func (e *engine) run(until float64) error {
	e.grp.Run(secondsToTime(until))
	if e.tracer != nil {
		if err := e.tracer.Flush(); err != nil {
			return fmt.Errorf("sharqfec: packet trace: %w", err)
		}
	}
	return nil
}

// collector returns the run's traffic collector, merging the per-shard
// ones.
func (e *engine) collector() *stats.Collector {
	col := stats.NewCollector(e.spec.Source, len(e.spec.Receivers), e.cols[0].DataRepair.BinWidth)
	for _, c := range e.cols {
		col.Merge(c)
	}
	return col
}

// startFaults replays plan against the run (nil for an empty plan).
// Plan events fire through at, so they run inside sync barriers, using
// shard 0's network view — its mutators act cluster-wide. The hooks act
// on the run's agents.
func (e *engine) startFaults(plan *FaultPlan, onCrash, onRestart, onLeave func(now eventq.Time, node topology.NodeID)) (*faults.Engine, error) {
	if plan.Empty() {
		return nil, nil
	}
	eng := faults.NewEngine(e.nets[0], e.src, &plan.plan)
	eng.Telemetry = e.tel.busOf()
	eng.Schedule = e.at
	eng.OnCrash = onCrash
	eng.OnRestart = onRestart
	eng.OnLeave = onLeave
	if err := eng.Start(); err != nil {
		return nil, err
	}
	return eng, nil
}

// faultDrops counts packets that died on administratively-down links.
func (e *engine) faultDrops() (n int) {
	for _, net := range e.nets {
		n += int(net.FaultDrops())
	}
	return n
}

// faultLog renders the faults a plan applied, in firing order (nil
// without a plan).
func faultLog(eng *faults.Engine) []string {
	if eng == nil {
		return nil
	}
	var out []string
	for _, a := range eng.Log() {
		out = append(out, fmt.Sprintf("%s %s", a.At, a.Desc))
	}
	return out
}

// cloneForFaults deep-copies a spec's graph when a plan will mutate
// link state, so shared topology specs stay pristine across runs.
func cloneForFaults(spec *topology.Spec, plan *FaultPlan) *topology.Spec {
	if plan.Empty() {
		return spec
	}
	s := *spec
	s.Graph = spec.Graph.Clone()
	return &s
}
