package main

import (
	"fmt"
	"io"
	"strings"

	"sharqfec"
	"sharqfec/internal/telemetry/census"
	"sharqfec/internal/topology"
)

// runOpts varies one scenario call without changing the workload.
type runOpts struct {
	shards int  // 0 keeps the workload's own engine choice
	census bool // fig17 only: arm TelemetryConfig{Census: true} for exact counts
}

// outcome is what one checked scenario call yields.
type outcome struct {
	// failure names the first correctness check that did not hold ("" when all held).
	failure string
	// counts are exact per-layer counts read from the result.
	counts map[string]float64
	// fingerprint is the protocol outcome in a comparable form (shard oracle, passivity check).
	fingerprint string
	// note is reported beside the result without counting as a failure.
	note string
}

// workload is one named benchmark scenario driven through the public facade.
type workload struct {
	name string
	// nominal is the expected wall seconds of one scenario on a 2-vCPU host.
	// It sizes the scenario list from --seconds; it is a constant, so the
	// list is the same on every commit however fast the program is.
	nominal float64
	// minScenarios is the shortest scenario list that gives a steady median.
	minScenarios int
	// setupReps is how many set-up-only calls setup_s is the median of.
	setupReps int
	// traceScenarios is how many scenarios the traced run profiles.
	traceScenarios int
	// receivers and horizon (simulated seconds) give rcvr_sim_s_per_s.
	receivers int
	horizon   float64
	// shards is the workload's own shard count (0: the sequential engine).
	shards int
	run    func(seed uint64, o runOpts) (outcome, error)
	// setup runs the same call with the simulated horizon cut before the
	// first protocol event.
	setup func(seed uint64, shards int) error

	// Traced run.
	//
	// topology builds the workload's network for the set-up spans, which
	// are medians of spanReps builds.
	topology func() *topology.Spec
	spanReps int
	// shardable workloads report shard.speedup from a 1- and a 2-shard run.
	shardable bool
	// censusPass takes the exact counts from a census-armed pass.
	censusPass bool
	// replay re-runs the session measurement on the spans' layers.
	replay bool
}

// Completion floors, set below what either engine family reaches: over
// 300 scenario seeds fig17 completes at 0.9978 or more on the
// sequential engine and at 1 shard (the sharded family's seed-24 run
// completes at 0.9999), and chaos completes fully on 60 seeds.
const (
	fig17CompletionFloor = 0.99
	chaosCompletionFloor = 0.99
)

// E21 point: national 18×18×18 with 2 subscribers per suburb.
const (
	nationalRegions, nationalCities, nationalSuburbs, nationalSubscribers = 18, 18, 18, 2
	nationalSeconds                                                       = 2.0
	nationalTolerance                                                     = 0.55
	nationalShards                                                        = 2
)

// setupUntil ends a data or chaos run before JoinAt (1 s), so only
// set-up executes.
const setupUntil = 0.5

// chaosSLO declares objectives for the chaos workload; violations are
// protocol outcomes and are reported, not counted as failures.
const chaosSLO = `
recovery_latency p95 <= 0.4 window=10 fast=2.5 min=4
suppression_ratio >= 0.5 window=10 min=8
repair_locality >= 0.6 window=10 min=8
`

var workloads = []*workload{
	{
		name: "fig17", nominal: 0.9, setupReps: 201, traceScenarios: 3,
		receivers: 112, horizon: 30,
		run: runFig17, setup: setupFig17,
		topology: figure10, spanReps: 15, shardable: true, censusPass: true,
	},
	{
		name: "chaos", nominal: 1.0, setupReps: 201, traceScenarios: 3,
		receivers: 112, horizon: 90,
		run: runChaos, setup: setupChaos,
		topology: figure10, spanReps: 15,
	},
	{
		name: "national12k", nominal: 7.6, minScenarios: 4, setupReps: 4, traceScenarios: 1,
		receivers: nationalReceivers(), horizon: 1 + nationalSeconds, shards: nationalShards,
		run: runNational, setup: setupNational,
		topology: national, spanReps: 1, shardable: true, replay: true,
	},
}

func workloadNamed(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

func figure10() *topology.Spec { return topology.Figure10(topology.Figure10Params{}) }

// national builds the E21 network as sharqfec.NationalTopology does.
func national() *topology.Spec {
	p := topology.NationalParams{
		Regions: nationalRegions, Cities: nationalCities,
		Suburbs: nationalSuburbs, SubscribersPerSuburb: nationalSubscribers,
	}
	return topology.National(p, 10e6, 0.010, 0)
}

func nationalReceivers() int {
	r, c, s := nationalRegions, nationalCities, nationalSuburbs
	return r + r*c + r*c*s*nationalSubscribers
}

// --- fig17: the paper's §6.2 scenario, RunData defaults ---

func runFig17(seed uint64, o runOpts) (outcome, error) {
	cfg := sharqfec.DataConfig{Protocol: sharqfec.SHARQFEC, Seed: seed, Shards: o.shards}
	if o.census {
		cfg.Telemetry = &sharqfec.TelemetryConfig{Census: true}
	}
	res, err := sharqfec.RunData(cfg)
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	switch {
	case !res.Verified:
		out.failure = "payloads not verified"
	case res.CompletionRate < fig17CompletionFloor:
		out.failure = fmt.Sprintf("completion %.6f below floor %.4f", res.CompletionRate, fig17CompletionFloor)
	}
	out.fingerprint = fmt.Sprintf("completion=%v nacks=%d repairs=%d injected=%d session=%d",
		res.CompletionRate, res.NACKsSent, res.RepairsSent, res.RepairsInjected, res.SessionPackets)
	out.counts = map[string]float64{
		"core.nacks":    float64(res.NACKsSent),
		"core.repairs":  float64(res.RepairsSent),
		"core.injected": float64(res.RepairsInjected),
	}
	addCensusCounts(out.counts, res.Telemetry)
	return out, nil
}

func setupFig17(seed uint64, shards int) error {
	_, err := sharqfec.RunData(sharqfec.DataConfig{
		Protocol: sharqfec.SHARQFEC, Seed: seed, Shards: shards, Until: setupUntil,
	})
	return err
}

// --- chaos: burst loss plus a ZCR crash, every telemetry sink armed ---

func chaosConfig(seed uint64, until float64) (sharqfec.ChaosConfig, error) {
	slo, err := sharqfec.ParseSLOSpec(strings.NewReader(chaosSLO))
	if err != nil {
		return sharqfec.ChaosConfig{}, err
	}
	return sharqfec.ChaosConfig{
		Seed:   seed,
		Until:  until,
		Faults: sharqfec.BurstLossPlan(8).Crash(9, 8),
		Telemetry: &sharqfec.TelemetryConfig{
			Events: io.Discard,
			Census: true,
			SLO:    slo,
		},
	}, nil
}

func runChaos(seed uint64, _ runOpts) (outcome, error) {
	cfg, err := chaosConfig(seed, 0)
	if err != nil {
		return outcome{}, err
	}
	res, err := sharqfec.RunChaos(cfg)
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	switch {
	case !res.Verified:
		out.failure = "payloads not verified"
	case res.CompletionRate < chaosCompletionFloor:
		out.failure = fmt.Sprintf("completion %.6f below floor %.4f", res.CompletionRate, chaosCompletionFloor)
	}
	for _, re := range res.Reelections {
		if re.NewZCR < 0 && out.failure == "" {
			out.failure = fmt.Sprintf("zone %d never re-elected a ZCR after node %d crashed", re.Zone, re.Crashed)
		}
	}
	if res.Health != nil && !res.Health.Passed() {
		out.note = fmt.Sprintf("%d SLO violations", res.Health.Violations())
	}
	out.fingerprint = fmt.Sprintf("completion=%v nacks=%d repairs=%d", res.CompletionRate, res.NACKsSent, res.RepairsSent)
	out.counts = map[string]float64{
		"core.nacks":   float64(res.NACKsSent),
		"core.repairs": float64(res.RepairsSent),
	}
	addCensusCounts(out.counts, res.Telemetry)
	// ChaosResult carries no injection total; the census counts the same
	// repair_injected events as preemptive FEC shares.
	out.counts["core.injected"] = out.counts["fec.shares"]
	return out, nil
}

func setupChaos(seed uint64, _ int) error {
	cfg, err := chaosConfig(seed, setupUntil)
	if err != nil {
		return err
	}
	_, err = sharqfec.RunChaos(cfg)
	return err
}

// addCensusCounts copies the census digest of a telemetry report into
// counts. A nil report (census off) adds nothing.
func addCensusCounts(counts map[string]float64, rep *sharqfec.TelemetryReport) {
	sum := rep.CensusSummary()
	if sum == nil {
		return
	}
	for c := census.Class(0); c < census.NumClasses; c++ {
		counts["netsim.link_pkts."+c.String()] = float64(sum.LinkPkts[c])
	}
	counts["fec.shares"] = float64(sum.FECShares)
	counts["eventq.events"] = float64(sum.Queue.Dispatched)
	counts["session.peak_state"] = float64(sum.PeakRTT)
	ctrl := sum.LinkPkts[census.ClassControl]
	counts["session.ctrl_link_pkts"] = float64(ctrl)
	if ctrl > 0 {
		// Zone-boundary crossings (all levels) per control link crossing:
		// the digest does not split boundary traffic by level.
		counts["session.escape_frac"] = float64(sum.BoundaryPkts[census.ClassControl]) / float64(ctrl)
	}
}

// --- national12k: the E21 point through RunScalingSweep ---

func nationalConfig(seed uint64, shards int, seconds float64) sharqfec.ScalingSweepConfig {
	if shards == 0 {
		shards = nationalShards
	}
	return sharqfec.ScalingSweepConfig{
		Regions: nationalRegions, Cities: nationalCities, Suburbs: nationalSuburbs,
		Subscribers:   []int{nationalSubscribers},
		Seed:          seed,
		Seconds:       seconds,
		Tolerance:     nationalTolerance,
		Shards:        shards,
		DesignateZCRs: true,
	}
}

func runNational(seed uint64, o runOpts) (outcome, error) {
	rep, err := sharqfec.RunScalingSweep(nationalConfig(seed, o.shards, nationalSeconds))
	if err != nil {
		return outcome{}, err
	}
	var out outcome
	if d := rep.Drifted(); len(d) > 0 {
		out.failure = fmt.Sprintf("state-ratio drift %.3f beyond tolerance %.2f", d[0].StateDrift, rep.Tolerance)
	}
	if len(rep.Points) != 1 {
		return outcome{}, fmt.Errorf("scaling sweep returned %d points, want 1", len(rep.Points))
	}
	p := rep.Points[0]
	out.fingerprint = fmt.Sprintf("peak_state=%d ctrl_link_pkts=%d escape_frac=%v",
		p.ScopedStateMeasured, p.ScopedMsgs, p.ScopedEscapeFrac)
	out.counts = map[string]float64{
		"session.peak_state":     float64(p.ScopedStateMeasured),
		"session.ctrl_link_pkts": float64(p.ScopedMsgs),
		"session.escape_frac":    p.ScopedEscapeFrac,
	}
	return out, nil
}

func setupNational(seed uint64, shards int) error {
	// A near-zero horizon: member start-up at t=1 s runs, no session
	// timer fires.
	_, err := sharqfec.RunScalingSweep(nationalConfig(seed, shards, 1e-6))
	return err
}
