package sharqfec

// Determinism gate: fixed-seed digests of whole runs. Any behavioural
// drift — in the FEC kernels, the event queue, netsim forwarding or the
// protocols — fails here byte-for-byte. Each re-pin is recorded with its
// reason in CHANGES.md.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// dataDigest canonically encodes everything RunData reports (series
// bins at full float64 precision, recovery totals, fault log) and
// hashes it.
func dataDigest(res *DataResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "proto=%s topo=%s rcvrs=%d\n", res.Protocol, res.Topology, res.Receivers)
	writeSeries(&b, "avgDataRepair", res.AvgDataRepair)
	writeSeries(&b, "avgNACKs", res.AvgNACKs)
	writeSeries(&b, "srcDataRepair", res.SourceDataRepair)
	writeSeries(&b, "srcNACKs", res.SourceNACKs)
	fmt.Fprintf(&b, "nacks=%d repairs=%d injected=%d compl=%v verified=%v session=%d faultdrops=%d\n",
		res.NACKsSent, res.RepairsSent, res.RepairsInjected, res.CompletionRate,
		res.Verified, res.SessionPackets, res.FaultDrops)
	for _, f := range res.FaultLog {
		fmt.Fprintf(&b, "fault %s\n", f)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// chaosDigest canonically encodes a ChaosResult.
func chaosDigest(res *ChaosResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "proto=%s topo=%s rcvrs=%d\n", res.Protocol, res.Topology, res.Receivers)
	fmt.Fprintf(&b, "compl=%v verified=%v localfrac=%v faultdrops=%d nacks=%d repairs=%d\n",
		res.CompletionRate, res.Verified, res.LocalRepairFrac,
		res.FaultDrops, res.NACKsSent, res.RepairsSent)
	for _, r := range res.Reelections {
		fmt.Fprintf(&b, "reelect crashed=%d zone=%d new=%d at=%v rec=%v\n",
			r.Crashed, r.Zone, r.NewZCR, r.CrashAt, r.RecoverySeconds)
	}
	for _, f := range res.FaultLog {
		fmt.Fprintf(&b, "fault %s\n", f)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

func writeSeries(b *strings.Builder, name string, s Series) {
	fmt.Fprintf(b, "%s start=%v width=%v bins=", name, s.Start, s.BinWidth)
	for _, v := range s.Bins {
		fmt.Fprintf(b, "%v,", v)
	}
	b.WriteByte('\n')
}

// TestFixedSeedRunDigests pins the full observable output of fixed-seed
// runs across every protocol family and the fault engine, on the default
// engine (Shards 0: the zone-sharded engine on one shard). The RunData
// cases are the shard matrix's table, so each must equal its shard-count
// golden; the RunChaos cases have their own.
func TestFixedSeedRunDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run digest suite")
	}
	for _, tc := range shardMatrixCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Shards = 0
			res, err := RunData(cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkDigest(t, dataDigest(res), tc.golden)
		})
	}
	t.Run("chaos-crash-seed31", func(t *testing.T) {
		res, err := RunChaos(ChaosConfig{Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, chaosDigest(res), goldenChaosCrash31)
	})
	t.Run("chaos-backbone-seed11", func(t *testing.T) {
		res, err := RunChaos(ChaosConfig{
			Seed: 11, NumPackets: 512, Faults: BackboneFlapPlan(), Until: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkDigest(t, chaosDigest(res), goldenChaosBackbone11)
	})
}

func checkDigest(t *testing.T, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("fixed-seed run digest drifted:\n got  %s\n want %s", got, want)
	}
}

// Golden digests of the RunChaos cases.
const (
	goldenChaosCrash31    = "5b5180ae7dfca9a1a75b5fd5256503aed7ee19dc4bd0d6623fbb4050d2b6e167"
	goldenChaosBackbone11 = "f990234b3235d579c4f60f8b75a1020a14c5535ca35e8e65fb381aa44eb39fc5"
)

// TestStaticRateControlDigestMatchesOff pins the rate-control seam: an
// explicit static controller must reproduce the built-in default
// byte-for-byte — same digest, both equal to the sharqfec-seed21 golden —
// so `-ratecontrol=static` is a rename of `off`, never a behavior
// change.
func TestStaticRateControlDigestMatchesOff(t *testing.T) {
	run := func(rc *RateControlConfig) string {
		t.Helper()
		res, err := RunData(DataConfig{
			Protocol: SHARQFEC, Seed: 21, RateControl: rc,
		})
		if err != nil {
			t.Fatal(err)
		}
		return dataDigest(res)
	}
	off := run(nil)
	static := run(&RateControlConfig{Mode: RateControlStatic})
	if off != static {
		t.Errorf("static rate control diverged from off:\n off    %s\n static %s", off, static)
	}
	checkDigest(t, static, shardMatrixCases[0].golden)
}
