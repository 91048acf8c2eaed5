package sharqfec

// Shard-count invariance gate for the zone-sharded engine, the only
// engine: the same config and seed must yield byte-identical DataResults
// at every shard count. The five cases cover plain SHARQFEC, SRM, ECSRM
// under Gilbert bursts, a ZCR crash plan and a backbone flap plan (the
// chaos seeds are expressed as RunData+FaultPlan here; RunChaos
// hard-wires telemetry, which runs on more than one shard reject). The
// table's goldens are also the default engine's (Shards 0 runs one
// shard; TestFixedSeedRunDigests checks that).

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"testing"
)

var shardMatrixCases = []struct {
	name   string
	cfg    DataConfig
	golden string
}{
	{
		name:   "sharqfec-seed21",
		cfg:    DataConfig{Protocol: SHARQFEC, Seed: 21},
		golden: "70215279a0e7098fd59f872be12704c4d81324d4387202e0a97b268762ef8a52",
	},
	{
		name:   "srm-seed22",
		cfg:    DataConfig{Protocol: SRM, Seed: 22, NumPackets: 512},
		golden: "adb0b7e80c0cb7213d5b97e6bb1d242028b69fdfd0a6f6007d366b30b6713e5b",
	},
	{
		name: "ecsrm-gilbert-seed5",
		cfg: DataConfig{
			Protocol: ECSRM, Seed: 5, NumPackets: 256, Until: 30,
			Faults: BurstLossPlan(8),
		},
		golden: "2b5da0d48cb4e05cc61ab45efc03120e3f9064be8a2801e52bfe50f8eb689ef4",
	},
	{
		name:   "sharqfec-crash-seed31",
		cfg:    DataConfig{Protocol: SHARQFEC, Seed: 31, Faults: ZCRCrashPlan()},
		golden: "b514d2bcb9ee345965a6300709fca10d1780301a1cb359022b7d371e0b7c5395",
	},
	{
		name: "sharqfec-backbone-seed11",
		cfg: DataConfig{
			Protocol: SHARQFEC, Seed: 11, NumPackets: 512, Until: 60,
			Faults: BackboneFlapPlan(),
		},
		golden: "2c8c35168fa1c1a7c5db120f11371d8090675186217559793ccd0804bd738594",
	},
}

// TestShardCountInvarianceMatrix runs every case at 1, 2 and 4 shards
// and requires all three digests to match the pinned golden.
func TestShardCountInvarianceMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run digest suite")
	}
	for _, tc := range shardMatrixCases {
		t.Run(tc.name, func(t *testing.T) {
			for _, k := range []int{1, 2, 4} {
				cfg := tc.cfg
				cfg.Shards = k
				res, err := RunData(cfg)
				if err != nil {
					t.Fatalf("shards=%d: %v", k, err)
				}
				if got := dataDigest(res); got != tc.golden {
					t.Errorf("shards=%d digest drifted:\n got  %s\n want %s", k, got, tc.golden)
				}
				if res.CompletionRate <= 0 {
					t.Errorf("shards=%d: completion rate %v; the run did nothing", k, res.CompletionRate)
				}
			}
		})
	}
}

// TestShardedRejectsUnsupportedConfigs pins the error surface: the
// combinations runs on more than one shard cannot yet honor must fail
// loudly, never silently drop the sink or the policy.
func TestShardedRejectsUnsupportedConfigs(t *testing.T) {
	cases := []struct {
		name string
		cfg  DataConfig
	}{
		{"telemetry", DataConfig{Protocol: SHARQFEC, Shards: 2, Telemetry: &TelemetryConfig{}}},
		{"packet-trace", DataConfig{Protocol: SHARQFEC, Shards: 2, TraceWriter: io.Discard}},
		{"adaptive-ratecontrol", DataConfig{Protocol: SHARQFEC, Shards: 2,
			RateControl: &RateControlConfig{Mode: RateControlAdaptive}}},
		{"negative-shards", DataConfig{Protocol: SHARQFEC, Shards: -3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := RunData(tc.cfg); err == nil {
				t.Error("want an error, got success")
			}
		})
	}
}

// TestDefaultEngineIsOneShard pins Shards 0 to the one-shard engine for
// everything a one-shard run accepts and a multi-shard run refuses:
// results, the JSONL event trace with spans and census, the census CSV,
// the packet trace, and adaptive rate control.
func TestDefaultEngineIsOneShard(t *testing.T) {
	run := func(shards int, rc *RateControlConfig) string {
		t.Helper()
		var events, packets, csv bytes.Buffer
		res, err := RunData(DataConfig{
			Protocol: SHARQFEC, Seed: 13, NumPackets: 128, Until: 20, Shards: shards,
			Telemetry:   &TelemetryConfig{Events: &events, Spans: true, Census: true},
			TraceWriter: &packets,
			RateControl: rc,
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if err := res.Telemetry.WriteMetricsCSV(&csv); err != nil {
			t.Fatal(err)
		}
		if events.Len() == 0 || packets.Len() == 0 {
			t.Fatalf("shards=%d: empty event or packet trace", shards)
		}
		return pinDigest(dataDigest(res), events.String(), packets.String(), csv.String())
	}
	for _, rc := range []*RateControlConfig{nil, {Mode: RateControlAdaptive}} {
		if zero, one := run(0, rc), run(1, rc); zero != one {
			t.Errorf("rate control %v: Shards 0 digest %s, Shards 1 %s", rc, zero, one)
		}
	}
}

// TestShardedStaticRateControlMatchesOff mirrors the sequential seam
// pin: static rate control must be a rename of off, sharded too.
func TestShardedStaticRateControlMatchesOff(t *testing.T) {
	run := func(rc *RateControlConfig) string {
		t.Helper()
		res, err := RunData(DataConfig{Protocol: SHARQFEC, Seed: 21, Shards: 2, RateControl: rc})
		if err != nil {
			t.Fatal(err)
		}
		return dataDigest(res)
	}
	if off, static := run(nil), run(&RateControlConfig{Mode: RateControlStatic}); off != static {
		t.Errorf("sharded static rate control diverged from off:\n off    %s\n static %s", off, static)
	}
}

// TestShardMatrixHarvest prints the current K=1 digests for re-pinning
// after an intentional behavior change:
//
//	SHARD_HARVEST=1 go test -run TestShardMatrixHarvest -v
//
// It only prints; pins are updated by hand.
func TestShardMatrixHarvest(t *testing.T) {
	if os.Getenv("SHARD_HARVEST") == "" {
		t.Skip("harvest helper; run with SHARD_HARVEST=1 and -v")
	}
	for _, tc := range shardMatrixCases {
		cfg := tc.cfg
		cfg.Shards = 1
		res, err := RunData(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fmt.Printf("HARVEST %s %s\n", tc.name, dataDigest(res))
	}
}
