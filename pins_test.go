package sharqfec

// Output pins for the entry points the run-digest and shard-matrix
// goldens do not reach. Each case runs one fixed-seed call and hashes
// its full observable output; a drift means the entry point's results
// changed.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
)

// pinDigest hashes the concatenation of parts.
func pinDigest(parts ...string) string {
	sum := sha256.Sum256([]byte(strings.Join(parts, "\x00")))
	return hex.EncodeToString(sum[:])
}

var entryPointPins = []struct {
	name   string
	run    func() (string, error)
	golden string
}{
	{
		name: "zcr-failover-seed31",
		run: func() (string, error) {
			res, err := RunZCRFailover(31)
			if err != nil {
				return "", err
			}
			type raw FailoverResult // drops String, which rounds
			return fmt.Sprintf("%+v", raw(*res)), nil
		},
		golden: "bccd46502167cc81a82b7694493e35f48f3ab86f6b777e26a8d1957f5f96a602",
	},
	{
		name: "late-join-seed32",
		run: func() (string, error) {
			res, err := RunLateJoin(32, 0)
			if err != nil {
				return "", err
			}
			type raw LateJoinResult // drops String, which rounds
			return fmt.Sprintf("%+v", raw(*res)), nil
		},
		golden: "95c2636268ce2ffe20df9542770221b8796497ccbf2fd9af79cd5f5d11229a7d",
	},
	{
		name: "timer-sweep-seed30",
		run: func() (string, error) {
			pts, err := RunTimerSweep(30, []float64{0.5, 2})
			return fmt.Sprintf("%+v", pts), err
		},
		golden: "3c25ee9521c3b8785ee261a546c56e78794226e2b272323e3d6d91650f626349",
	},
	{
		name: "zcr-election-seed4",
		run: func() (string, error) {
			res, err := RunZCRElection(nil, 4, 0)
			return fmt.Sprintf("%+v", res), err
		},
		golden: "cb1b4614251982a56bdf552dce816f5cff61eea05160c853a0762764b6d92ec3",
	},
	{
		name: "session-scaling-seed6",
		run: func() (string, error) {
			res, err := RunSessionScaling(NationalTopology(2, 2, 2, 3), 6, 5)
			return fmt.Sprintf("%+v", res), err
		},
		golden: "ba716f242f422a69e0f51916e13b78ba59b54f2ad7379999611faa631ff63dff",
	},
	{
		name: "receiver-reports-seed8",
		run: func() (string, error) {
			res, err := RunReceiverReports(8)
			return fmt.Sprintf("%+v", res), err
		},
		golden: "0851f1687b716f6eb240fe3aa484aa135f2dea55775ac484b7ab6b3eb6e60576",
	},
	{
		name: "rtt-seed9",
		run: func() (string, error) {
			res, err := RunRTT(RTTConfig{Seed: 9})
			return fmt.Sprintf("%+v", res), err
		},
		golden: "05777af332fb36617d80f757b64e229eac99a4c43da806d42f002f48da3ec05b",
	},
	{
		name: "scaling-sweep-shards0",
		run: func() (string, error) {
			rep, err := RunScalingSweep(ScalingSweepConfig{Subscribers: []int{2}, Seed: 11, Seconds: 5})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%s %v %+v", rep.Topology, rep.Tolerance, rep.Points), nil
		},
		golden: "62f595b5e970229ea66c28b61f65acbdc7b60aa949eef0557477059a73c801b1",
	},
	{
		name: "scaling-sweep-shards2",
		run: func() (string, error) {
			rep, err := RunScalingSweep(ScalingSweepConfig{Subscribers: []int{2}, Seed: 11, Seconds: 5, Shards: 2})
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%s %v %+v", rep.Topology, rep.Tolerance, rep.Points), nil
		},
		golden: "62f595b5e970229ea66c28b61f65acbdc7b60aa949eef0557477059a73c801b1",
	},
	{
		name: "data-trace-spans-census-seed3",
		run: func() (string, error) {
			var trace, csv bytes.Buffer
			res, err := RunData(DataConfig{
				Protocol: SHARQFEC, Seed: 3, NumPackets: 256, Until: 20,
				Telemetry: &TelemetryConfig{Events: &trace, Spans: true, Census: true},
			})
			if err != nil {
				return "", err
			}
			if err := res.Telemetry.WriteMetricsCSV(&csv); err != nil {
				return "", err
			}
			return pinDigest(dataDigest(res), trace.String(), csv.String()), nil
		},
		golden: "dcefe9e6ec9fa183c1e99dac288b5ffb526962056df8993476c4fd0c034de7c0",
	},
	{
		name: "chaos-trace-crash-restart-leave-seed7",
		run: func() (string, error) {
			var trace bytes.Buffer
			res, err := RunChaos(ChaosConfig{
				Seed: 7, NumPackets: 256, Until: 40,
				Faults:    NewFaultPlan().Crash(9, 8).Leave(10, 17).Restart(20, 8),
				Telemetry: &TelemetryConfig{Events: &trace},
			})
			if err != nil {
				return "", err
			}
			return pinDigest(chaosDigest(res), trace.String(), strings.Join(res.FlightRecord, "\n")), nil
		},
		golden: "c54fbf0017a2fa124dd6feafc5d7fcf66d4ede99d54e3563c7febb00ccd208bc",
	},
	{
		name: "chaos-census-seed7",
		run: func() (string, error) {
			var csv bytes.Buffer
			res, err := RunChaos(ChaosConfig{
				Seed: 7, NumPackets: 256, Until: 40,
				Telemetry: &TelemetryConfig{Census: true},
			})
			if err != nil {
				return "", err
			}
			if err := res.Telemetry.WriteMetricsCSV(&csv); err != nil {
				return "", err
			}
			census := fmt.Sprintf("%+v %+v", *res.Telemetry.CensusSummary(), res.Telemetry.CensusEpochs())
			return pinDigest(chaosDigest(res), census, csv.String()), nil
		},
		golden: "66b5a31f8c8f8a14692c9d2dd0321b30045321b7aeeb0299b22ef63b6e10cdf6",
	},
}

// TestEntryPointOutputPins runs every pinned entry point once and
// requires its output digest to match the golden.
func TestEntryPointOutputPins(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run digest suite")
	}
	for _, tc := range entryPointPins {
		t.Run(tc.name, func(t *testing.T) {
			out, err := tc.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := pinDigest(out); got != tc.golden {
				t.Errorf("output digest drifted:\n got  %s\n want %s", got, tc.golden)
			}
		})
	}
}
