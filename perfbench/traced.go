package main

import (
	"fmt"
	"time"

	"sharqfec/internal/eventq"
	"sharqfec/internal/netsim"
	"sharqfec/internal/scoping"
	"sharqfec/internal/session"
	"sharqfec/internal/simrand"
	"sharqfec/internal/telemetry"
	"sharqfec/internal/telemetry/census"
	"sharqfec/internal/topology"
)

// countMetrics are the exact per-layer counts; a workload whose layers
// never run reports 0.
var countMetrics = []string{
	"eventq.events",
	"netsim.link_pkts.data", "netsim.link_pkts.nack", "netsim.link_pkts.repair",
	"netsim.link_pkts.fec", "netsim.link_pkts.ctrl",
	"session.peak_state", "session.ctrl_link_pkts",
	"core.nacks", "core.repairs", "core.injected", "fec.shares",
}

// spanMetrics are the set-up spans, in build order.
var spanMetrics = []string{
	"topology.build_s", "scoping.build_s", "topology.partition_s",
	"netsim.cluster_build_s", "census.bind_s",
}

// spanShards is the shard count the set-up spans partition for.
const spanShards = 2

// runTraced measures the per-layer metrics of one workload: a CPU
// profile of each scenario beside an untraced run of the same
// scenario, exact counts from the results, set-up spans around the
// layers' own set-up calls, the FEC probe and, where the workload can
// shard, a K=1 against K=2 pair.
func runTraced(w *workload, seeds []uint64) report {
	var rep report

	var first *childResult // untraced run of seeds[0]
	var refWalls, profWalls []float64
	var cpu, wall float64
	samples := map[string]int64{}
	for _, s := range seeds {
		ref := spawnScenario(w, s, runOpts{}, false)
		if !rep.tally(fmt.Sprintf("%s seed %d", w.name, s), ref.problem()) {
			continue
		}
		if first == nil {
			first = &ref
		}
		refWalls = append(refWalls, ref.WallS)
		cpu += ref.CPUS
		wall += ref.WallS
		prof := spawnScenario(w, s, runOpts{}, true)
		if !rep.tally(fmt.Sprintf("%s seed %d profiled", w.name, s), prof.problem()) {
			continue
		}
		profWalls = append(profWalls, prof.WallS)
		for l, n := range prof.Samples {
			samples[l] += n
		}
	}
	if first == nil {
		return rep
	}

	var total int64
	for _, n := range samples {
		total += n
	}
	for _, l := range layers {
		share := 0.0
		if total > 0 {
			share = float64(samples[l]) / float64(total)
		}
		rep.set(l+".cpu_share", share, "ratio")
	}
	rep.set("trace.overhead_pct", 100*(median(profWalls)/median(refWalls)-1), "%")
	rep.set("cpu_util", cpu/wall, "ratio")
	rep.set("shard.speedup", shardSpeedup(&rep, w, seeds[0], first), "x")

	counts := map[string]float64{}
	for n, v := range first.Counts {
		counts[n] = v
	}
	if w.censusPass {
		c := spawnScenario(w, seeds[0], runOpts{census: true}, false)
		if rep.tally(fmt.Sprintf("%s seed %d census pass", w.name, seeds[0]), c.problem()) {
			rep.tally("census passivity", mismatch(first.Fingerprint, c.Fingerprint))
			counts = c.Counts
		}
	}

	spans, b, err := buildLayers(w, seeds[0])
	if !rep.tally(w.name+" layer set-up", errText(err)) {
		return rep
	}
	for _, n := range spanMetrics {
		rep.set(n, median(spans[n]), "s")
	}
	if w.replay {
		rc := replaySession(b, nationalSeconds)
		for _, n := range []string{"session.peak_state", "session.ctrl_link_pkts", "session.escape_frac"} {
			rep.tally("replay agrees with facade on "+n,
				mismatch(fmt.Sprint(counts[n]), fmt.Sprint(rc[n])))
		}
		for n, v := range rc {
			counts[n] = v
		}
	}
	for _, n := range countMetrics {
		rep.set(n, counts[n], "count")
	}
	rep.set("session.escape_frac", counts["session.escape_frac"], "ratio")

	enc, dec, err := fecProbe(seeds[0])
	rep.tally("fec probe", errText(err))
	rep.set("fec.encode_mb_per_s", enc, "MB/s")
	rep.set("fec.decode_mb_per_s", dec, "MB/s")
	return rep
}

// shardSpeedup is the K=1 ÷ K=2 steady-state wall time (set-up
// subtracted) of one scenario, and checks that both shard counts give
// the same protocol outcome. Workloads without a sharded engine report 1.
func shardSpeedup(rep *report, w *workload, seed uint64, first *childResult) float64 {
	if !w.shardable {
		return 1
	}
	run := func(k int) (childResult, bool) {
		if w.shards == k {
			return *first, true
		}
		r := spawnScenario(w, seed, runOpts{shards: k}, false)
		return r, rep.tally(fmt.Sprintf("%s seed %d at %d shards", w.name, seed, k), r.problem())
	}
	k1, ok1 := run(1)
	k2, ok2 := run(2)
	if !ok1 || !ok2 {
		return 0
	}
	rep.tally("shard oracle (1 vs 2 shards)", mismatch(k1.Fingerprint, k2.Fingerprint))
	s1, _ := timeSetups(rep, w, []uint64{seed}, 1, w.spanReps)
	s2, _ := timeSetups(rep, w, []uint64{seed}, 2, w.spanReps)
	return (k1.WallS - median(s1)) / (k2.WallS - median(s2))
}

func mismatch(want, got string) string {
	if want == got {
		return ""
	}
	return fmt.Sprintf("%q != %q", want, got)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// built holds the layers buildLayers assembled, ready to run.
type built struct {
	spec    *topology.Spec
	h       *scoping.Hierarchy
	src     *simrand.Source
	grp     *eventq.ShardGroup
	cluster *netsim.Cluster
	cen     *census.Engine
}

// buildLayers builds the workload's topology and each layer's set-up
// on it w.spanReps times, timing every public set-up call, and returns
// the span durations with the last build.
func buildLayers(w *workload, seed uint64) (map[string][]float64, *built, error) {
	spans := map[string][]float64{}
	span := func(name string, f func()) {
		start := time.Now()
		f()
		spans[name] = append(spans[name], time.Since(start).Seconds())
	}
	var b *built
	for i := 0; i < w.spanReps; i++ {
		b = &built{src: simrand.New(seed)}
		var err error
		var owner []int32
		var lookahead eventq.Duration
		span("topology.build_s", func() { b.spec = w.topology() })
		span("scoping.build_s", func() { b.h, err = scoping.Build(b.spec.Zones) })
		if err != nil {
			return nil, nil, err
		}
		span("topology.partition_s", func() {
			owner, lookahead = topology.PartitionByZone(b.spec.Graph, b.spec.Zones, spanShards)
		})
		if lookahead <= 0 {
			return nil, nil, fmt.Errorf("partition yields no positive lookahead")
		}
		span("netsim.cluster_build_s", func() {
			b.grp = eventq.NewShardGroup(spanShards, lookahead)
			b.cluster, err = netsim.NewCluster(b.grp, b.spec.Graph, b.h, b.src, owner)
		})
		if err != nil {
			return nil, nil, err
		}
		span("census.bind_s", func() {
			b.cen = census.New(telemetry.NewRegistry(), b.h, b.spec.Graph.NumNodes())
			b.cen.BindLinks(b.spec.Graph)
		})
	}
	return spans, b, nil
}

// sessionAgent attaches a session manager to the network by itself.
type sessionAgent struct{ m *session.Manager }

func (a sessionAgent) Receive(now eventq.Time, d netsim.Delivery) { a.m.Receive(now, d.Pkt) }

// replaySession runs the scoped session-only census measurement of
// RunScalingSweep on layers built outside the facade (designated ZCRs,
// member start at 1 s, a census epoch every virtual second), and reads
// the counts the layers return. Its session figures must equal the
// facade's.
func replaySession(b *built, seconds float64) map[string]float64 {
	h, spec := b.h, b.spec
	designated := map[scoping.ZoneID]topology.NodeID{}
	for z := scoping.ZoneID(0); int(z) < h.NumZones(); z++ {
		if h.Parent(z) == scoping.NoZone {
			designated[z] = spec.Source
			continue
		}
		for _, m := range h.Members(z) {
			if d, ok := designated[z]; !ok || m < d {
				designated[z] = m
			}
		}
	}

	b.cen.BindQueue(b.grp.Queue(0))
	for i := 0; i < b.cluster.NumShards(); i++ {
		b.cluster.Shard(i).SetHopTap(b.cen.ObserveHop)
	}
	members := spec.Members()
	mgrs := make([]*session.Manager, len(members))
	for i, m := range members {
		mgr := session.New(m, b.cluster.NetFor(m), session.DefaultConfig(), b.src.StreamN("session", int(m)))
		b.cluster.NetFor(m).Attach(m, sessionAgent{mgr})
		mgrs[i] = mgr
		b.cen.SetProbe(m, func() census.State {
			return census.State{
				Timers:         int64(mgr.CensusTimers()),
				SessionEntries: int64(mgr.StateSize()),
			}
		})
	}
	b.grp.Sync(1, func(eventq.Time) {
		for i, m := range members {
			for _, z := range mgrs[i].Chain() {
				if d, ok := designated[z]; ok {
					mgrs[i].SeedZCR(z, d)
				}
			}
			mgrs[i].Start(m == spec.Source)
		}
	})
	for t := 2.0; t <= 1+seconds; t++ {
		b.grp.Sync(eventq.Time(t), func(now eventq.Time) { b.cen.Snapshot(float64(now)) })
	}
	b.grp.Run(eventq.Time(1 + seconds))
	b.cen.Snapshot(1 + seconds)

	out := map[string]float64{}
	var events uint64
	for i := 0; i < b.grp.NumShards(); i++ {
		events += b.grp.Queue(i).Dispatched()
	}
	out["eventq.events"] = float64(events)
	for c := census.Class(0); c < census.NumClasses; c++ {
		out["netsim.link_pkts."+c.String()] = float64(b.cen.LinkPkts(c))
	}
	ctrl := b.cen.LinkPkts(census.ClassControl)
	out["session.peak_state"] = float64(b.cen.PeakSessionEntries())
	out["session.ctrl_link_pkts"] = float64(ctrl)
	if ctrl > 0 {
		out["session.escape_frac"] = float64(b.cen.BoundaryPktsAtLevel(1, census.ClassControl)) / float64(ctrl)
	}
	return out
}
