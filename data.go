package sharqfec

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"

	"sharqfec/internal/core"
	"sharqfec/internal/eventq"
	"sharqfec/internal/faults"
	"sharqfec/internal/srm"
	"sharqfec/internal/stats"
	"sharqfec/internal/telemetry/census"
	"sharqfec/internal/topology"
)

// DataConfig parameterizes a §6.2 data/repair-traffic experiment.
// The zero value (with a Protocol) reproduces the paper's scenario on
// the Figure-10 topology: join at t=1 s, source on at t=6 s, 1024
// thousand-byte packets at 800 kbit/s in groups of 16, measured in
// 0.1 s bins.
type DataConfig struct {
	Protocol Protocol
	// Topology defaults to Figure10Topology().
	Topology *Topology
	Seed     uint64
	// NumPackets defaults to 1024 (must be a multiple of GroupK).
	NumPackets int
	// GroupK overrides the FEC group size (default 16, the paper's).
	// SRM ignores it (no grouping).
	GroupK int
	// BinWidth defaults to the paper's 0.1 s measurement interval.
	BinWidth float64
	// JoinAt / SourceOnAt / Until default to 1 s / 6 s / 30 s.
	JoinAt, SourceOnAt, Until float64
	// Verify checks every completed group's payloads against the
	// source (defaults true via RunData).
	SkipVerify bool
	// TraceWriter, when set, receives an ns-style packet-event trace
	// ("+" transmissions, "r" deliveries) for the whole run.
	TraceWriter io.Writer
	// QueueLimit bounds each link direction's transmit queue (packets);
	// overflowing packets are tail-dropped (congestion loss, the
	// paper's stated cause of loss). 0 = unbounded.
	QueueLimit int
	// Faults, when non-empty, replays a scripted timeline of network
	// faults against the run (see FaultPlan). nil or empty leaves the
	// run byte-identical to the fault-free experiment at the same seed.
	Faults *FaultPlan
	// Telemetry, when non-nil, attaches the observability layer (event
	// bus, metrics time series, optional JSONL trace). nil leaves the
	// run byte-identical to an uninstrumented one at the same seed.
	Telemetry *TelemetryConfig
	// RateControl selects the preemptive-FEC sizing policy (see
	// RateControlConfig). nil (or mode off/static) keeps the paper's
	// static EWMA policy — byte-identical to a build without the seam.
	// SRM ignores it (no FEC).
	RateControl *RateControlConfig
	// Shards is the zone-sharded engine's shard count (see engine.go):
	// the topology is partitioned by top-level zone onto this many event
	// queues that advance concurrently under conservative lookahead.
	// 0 (the default) means one shard. Results are byte-identical for
	// the same seed at every shard count. Telemetry, TraceWriter and
	// adaptive rate control are not yet supported above one shard.
	Shards int
}

func (c *DataConfig) applyDefaults() {
	if c.Topology == nil {
		c.Topology = Figure10Topology()
	}
	if c.NumPackets == 0 {
		c.NumPackets = 1024
	}
	if c.BinWidth == 0 {
		c.BinWidth = 0.1
	}
	if c.JoinAt == 0 {
		c.JoinAt = 1
	}
	if c.SourceOnAt == 0 {
		c.SourceOnAt = 6
	}
	if c.Until == 0 {
		c.Until = 30
	}
}

// DataResult holds everything the paper's traffic figures plot, plus
// recovery totals.
type DataResult struct {
	Protocol  Protocol
	Topology  string
	Receivers int

	// AvgDataRepair is data+repair packets per receiver per bin
	// (Figures 14, 16, 17, 18).
	AvgDataRepair Series
	// AvgNACKs is NACK packets per receiver per bin (Figures 15, 19).
	AvgNACKs Series
	// SourceDataRepair / SourceNACKs are the packets visible at the
	// source (Figures 20, 21).
	SourceDataRepair Series
	SourceNACKs      Series

	// Recovery totals.
	NACKsSent       int
	RepairsSent     int
	RepairsInjected int
	// CompletionRate is the fraction of (receiver, group) pairs fully
	// recovered by the end of the run (SRM: packets held / expected).
	CompletionRate float64
	// Verified is true when every recovered payload matched the source.
	Verified bool
	// SessionPackets counts session-message deliveries (the §5 cost).
	SessionPackets int
	// FaultDrops counts packets that died on administratively-down
	// links; FaultLog is the timeline of scripted faults as applied.
	// Both are zero/empty without a DataConfig.Faults plan.
	FaultDrops int
	FaultLog   []string
	// Telemetry is the observability report (nil unless
	// DataConfig.Telemetry was set).
	Telemetry *TelemetryReport
}

// RunData runs one data-delivery experiment and returns its traffic
// series and totals.
func RunData(cfg DataConfig) (*DataResult, error) {
	cfg.applyDefaults()
	if cfg.Protocol == SRM {
		return runSRM(&cfg)
	}
	if _, ok := cfg.Protocol.options(); !ok {
		return nil, fmt.Errorf("sharqfec: unknown protocol %q", cfg.Protocol)
	}
	r, err := newSHARQFECRun(&cfg, nil)
	if err != nil {
		return nil, err
	}
	if r.census = r.e.tel.censusOf(); r.census != nil {
		for _, ag := range r.all {
			r.probe(ag)
		}
	}
	res, err := r.runData()
	if err != nil {
		return nil, err
	}
	res.Verified = r.verified()
	for _, ag := range r.all {
		res.NACKsSent += ag.Stats.NACKsSent
		res.RepairsSent += ag.Stats.RepairsSent
		res.RepairsInjected += ag.Stats.RepairsInjected
	}
	res.CompletionRate = float64(r.completions()) / float64(res.Receivers*r.pcfg.NumGroups())
	return res, nil
}

func runSRM(cfg *DataConfig) (*DataResult, error) {
	e, err := newEngine(cfg, false)
	if err != nil {
		return nil, err
	}
	pcfg := srm.DefaultConfig()
	pcfg.Source = e.spec.Source
	pcfg.NumPackets = cfg.NumPackets
	pcfg.Telemetry = e.tel.busOf()
	s := &members[*srm.Agent]{e: e, cfg: cfg}
	spawn := func(node topology.NodeID) (*srm.Agent, error) {
		return srm.New(node, e.net(node), pcfg, e.src)
	}
	if err := s.start(spawn, (*srm.Agent).Join); err != nil {
		return nil, err
	}
	res, err := s.runData()
	if err != nil {
		return nil, err
	}
	// SRM verification and totals read agent state only after the run,
	// so no mid-run cross-shard reads are needed at all.
	for _, ag := range s.all {
		res.NACKsSent += ag.Stats.RequestsSent
		res.RepairsSent += ag.Stats.RepairsSent
	}
	held, verified := 0, true
	srcAgent := s.agents[e.spec.Source]
	for _, m := range e.spec.Receivers {
		ag := s.agents[m]
		held += ag.Held()
		if !cfg.SkipVerify {
			for seq := uint32(0); seq < uint32(cfg.NumPackets); seq += 13 {
				got, ok := ag.Payload(seq)
				want, _ := srcAgent.Payload(seq)
				if ok && !bytes.Equal(got, want) {
					verified = false
				}
			}
		}
	}
	res.CompletionRate = float64(held) / float64(res.Receivers*cfg.NumPackets)
	res.Verified = verified && !cfg.SkipVerify
	return res, nil
}

// dataAgent is what members drives: a core.Agent or an srm.Agent.
type dataAgent interface {
	Join()
	Stop()
	StartSource()
	EmitUnrecoveredLosses(now eventq.Time)
}

// members is one data session's agents on an engine — the paper's §6
// experiment: every member joins at JoinAt, the source starts sending
// at SourceOnAt, and the fault plan's crashes, restarts and leaves act
// on the agents.
type members[A dataAgent] struct {
	e      *engine
	cfg    *DataConfig
	agents map[topology.NodeID]A // each member's current agent
	// all keeps every agent ever created — including those replaced by
	// a fault-engine restart — in creation order, so recovery totals
	// and the end-of-run unrecovered-loss sweep cover crashed agents
	// too, deterministically.
	all    []A
	faults *faults.Engine
	// joinsLate marks members that sit out the JoinAt join; their
	// runner joins them mid-stream.
	joinsLate map[topology.NodeID]bool
	// onCrash, when set, runs after a crash stopped a member's agent.
	onCrash func(now eventq.Time, node topology.NodeID)
}

// start creates every member's agent with spawn, starts the fault plan
// and schedules the join and the source start. A member the plan
// restarts gets a fresh agent from spawn, which re-attaches over the
// dead one, and rejoins through rejoin.
func (s *members[A]) start(spawn func(topology.NodeID) (A, error), rejoin func(A)) error {
	spec, cfg := s.e.spec, s.cfg
	s.agents = make(map[topology.NodeID]A, len(spec.Receivers)+1)
	add := func(node topology.NodeID) (A, error) {
		ag, err := spawn(node)
		if err == nil {
			s.agents[node] = ag
			s.all = append(s.all, ag)
		}
		return ag, err
	}
	for _, m := range spec.Members() {
		if _, err := add(m); err != nil {
			return err
		}
	}
	stop := func(node topology.NodeID) bool {
		ag, ok := s.agents[node]
		if ok {
			ag.Stop()
		}
		return ok
	}
	var err error
	s.faults, err = s.e.startFaults(cfg.Faults,
		func(now eventq.Time, node topology.NodeID) {
			if stop(node) && s.onCrash != nil {
				s.onCrash(now, node)
			}
		},
		func(_ eventq.Time, node topology.NodeID) {
			if node == spec.Source {
				return
			}
			if ag, err := add(node); err == nil {
				rejoin(ag)
			}
		},
		func(_ eventq.Time, node topology.NodeID) { stop(node) })
	if err != nil {
		return err
	}
	s.e.at(secondsToTime(cfg.JoinAt), func(eventq.Time) {
		for _, m := range spec.Members() {
			if !s.joinsLate[m] {
				s.agents[m].Join()
			}
		}
	})
	s.e.at(secondsToTime(cfg.SourceOnAt), func(eventq.Time) { s.agents[spec.Source].StartSource() })
	return nil
}

// run advances the session to Until and closes the books: with
// telemetry on, every loss that never decoded gets its terminal event
// so no recovery span stays open.
func (s *members[A]) run() error {
	if err := s.e.run(s.cfg.Until); err != nil {
		return err
	}
	if s.e.tel != nil {
		for _, ag := range s.all {
			ag.EmitUnrecoveredLosses(secondsToTime(s.cfg.Until))
		}
	}
	return nil
}

// runData runs a RunData session and fills what both protocol families
// report alike: identity, telemetry, traffic series and fault
// accounting.
func (s *members[A]) runData() (*DataResult, error) {
	// A RunData census also accounts link and boundary traffic (RunChaos
	// leaves its census to protocol events and scheduler gauges).
	if c := s.e.tel.censusOf(); c != nil {
		c.BindLinks(s.e.spec.Graph)
		s.e.nets[0].SetHopTap(c.ObserveHop)
	}
	if err := s.run(); err != nil {
		return nil, err
	}
	cfg := s.cfg
	rep, err := s.e.tel.finish(cfg.Until)
	if err != nil {
		return nil, err
	}
	res := &DataResult{
		Protocol:   cfg.Protocol,
		Topology:   s.e.spec.Name,
		Receivers:  len(s.e.spec.Receivers),
		Telemetry:  rep,
		FaultDrops: s.e.faultDrops(),
		FaultLog:   faultLog(s.faults),
	}
	fillSeries(res, s.e.collector())
	return res, nil
}

// sharqRun is a SHARQFEC data session: the shared member loop plus
// completion accounting and payload verification.
type sharqRun struct {
	*members[*core.Agent]
	pcfg   core.Config
	source *core.Agent
	acc    []shardAcc // indexed by shard
	// census, when set, gets every agent's state probe (RunData only).
	census *census.Engine
	// onComplete, when set, observes every completion. It runs on the
	// receiver's shard, so only one-shard runners set it.
	onComplete func(now eventq.Time, node topology.NodeID, gid uint32)
}

// shardAcc is one shard's completion tally. Shards write only their
// own entry; the barrier hand-off orders those writes before the
// post-run reads.
type shardAcc struct {
	completions int
	mismatch    bool      // an inline payload comparison failed
	recs        []compRec // completions to verify after the run
}

// compRec is one completed group at one receiver off the source's
// shard, recorded as a digest and verified against the source after
// the run (the source agent cannot be read safely mid-run from other
// shards).
type compRec struct {
	gid uint32
	sum [sha256.Size]byte
}

// newSHARQFECRun builds and schedules one run of cfg (defaults applied,
// Protocol a SHARQFEC variant); tune, when non-nil, adjusts the protocol
// config before the agents exist. Runners add observers and events
// before calling run.
func newSHARQFECRun(cfg *DataConfig, tune func(*core.Config)) (*sharqRun, error) {
	opts, _ := cfg.Protocol.options()
	e, err := newEngine(cfg, opts.Scoping)
	if err != nil {
		return nil, err
	}
	r := &sharqRun{members: &members[*core.Agent]{e: e, cfg: cfg}, acc: make([]shardAcc, len(e.nets))}
	r.pcfg = core.DefaultConfig()
	r.pcfg.Source = e.spec.Source
	r.pcfg.NumPackets = cfg.NumPackets
	r.pcfg.Options = opts
	r.pcfg.Telemetry = e.tel.busOf()
	if cfg.GroupK > 0 {
		r.pcfg.GroupK = cfg.GroupK
	}
	if tune != nil {
		tune(&r.pcfg)
	}
	r.pcfg.NewController = cfg.RateControl.factory(r.pcfg)
	if err := r.start(r.spawn, (*core.Agent).JoinLate); err != nil {
		return nil, err
	}
	return r, nil
}

// probe registers an agent's state census with r.census; a restart
// replaces the crashed agent's probe (stopped agents report zero).
func (r *sharqRun) probe(ag *core.Agent) {
	if r.census == nil {
		return
	}
	r.census.SetProbe(ag.Node(), func() census.State {
		s := ag.StateCensus()
		return census.State{
			Groups:         int64(s.ActiveGroups),
			Timers:         int64(s.PendingTimers),
			RepairQueue:    int64(s.RepairQueue),
			ResidentBytes:  int64(s.ResidentBytes),
			SessionEntries: int64(s.SessionEntries),
			MemBytes:       int64(s.MemBytes),
		}
	})
}

// spawn creates node's agent on its shard, probes it and wires a
// receiver's completion accounting.
func (r *sharqRun) spawn(node topology.NodeID) (*core.Agent, error) {
	ag, err := core.New(node, r.e.net(node), r.pcfg, r.e.src)
	if err != nil {
		return nil, err
	}
	r.probe(ag)
	if node == r.e.spec.Source {
		r.source = ag
		return ag, nil
	}
	acc := &r.acc[r.e.shard(node)]
	inline := r.e.shard(node) == r.e.shard(r.e.spec.Source)
	ag.OnComplete = func(now eventq.Time, gid uint32, data [][]byte) {
		acc.completions++
		if r.onComplete != nil {
			r.onComplete(now, node, gid)
		}
		switch {
		case r.cfg.SkipVerify:
		case inline:
			want := r.source.SentGroup(gid)
			for i := range want {
				if !bytes.Equal(data[i], want[i]) {
					acc.mismatch = true
				}
			}
		default:
			acc.recs = append(acc.recs, compRec{gid: gid, sum: payloadDigest(data)})
		}
	}
	return ag, nil
}

// figure10Session is the §6 Figure-10 scenario the robustness, report
// and timer-sweep runners share: SHARQFEC with the paper's join and
// source-start times, payload verification off.
func figure10Session(seed uint64, packets int, until float64) *DataConfig {
	return &DataConfig{
		Protocol: SHARQFEC, Topology: Figure10Topology(), Seed: seed,
		NumPackets: packets, JoinAt: 1, SourceOnAt: 6, Until: until, SkipVerify: true,
	}
}

// completions counts every group completion at every receiver.
func (r *sharqRun) completions() int {
	n := 0
	for _, acc := range r.acc {
		n += acc.completions
	}
	return n
}

// verified reports whether every completion matched the source's
// payloads; it checks the recorded digests now that no shard is
// running. Always false with SkipVerify.
func (r *sharqRun) verified() bool {
	if r.cfg.SkipVerify {
		return false
	}
	want := make(map[uint32][sha256.Size]byte)
	for _, acc := range r.acc {
		if acc.mismatch {
			return false
		}
		for _, rec := range acc.recs {
			w, ok := want[rec.gid]
			if !ok {
				w = payloadDigest(r.source.SentGroup(rec.gid))
				want[rec.gid] = w
			}
			if rec.sum != w {
				return false
			}
		}
	}
	return true
}

func payloadDigest(parts [][]byte) [sha256.Size]byte {
	h := sha256.New()
	for _, p := range parts {
		h.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(p))))
		h.Write(p)
	}
	return [sha256.Size]byte(h.Sum(nil))
}

func fillSeries(res *DataResult, col *stats.Collector) {
	res.AvgDataRepair = toSeries(col.AvgDataRepair())
	res.AvgNACKs = toSeries(col.AvgNACKs())
	res.SourceDataRepair = toSeries(col.SourceDataRepair)
	res.SourceNACKs = toSeries(col.SourceNACKs)
	res.SessionPackets = int(col.Session.Sum())
}

func toSeries(s *stats.Series) Series {
	return Series{Start: s.Start, BinWidth: s.BinWidth, Bins: s.Values()}
}
