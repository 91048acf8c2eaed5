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
		golden: "eafb7ab9344aecc34847e8afab24d59cde000157bcaeff1cd742a5f5d3cf3016",
	},
	{
		name: "timer-sweep-seed30",
		run: func() (string, error) {
			pts, err := RunTimerSweep(30, []float64{0.5, 2})
			return fmt.Sprintf("%+v", pts), err
		},
		golden: "522701576e30eb5ea775252e7a1867fffb66c2aa11c7d7e01d304c8099bdcb91",
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
		golden: "3521b4bad93f983082f88fca964ec89fc9c4f337adb0edddd4fea056a1744e24",
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
		golden: "7a89c38a635869f8d07a7df691516d67cd35145b834d8b415de72c8d51508ddc",
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
		golden: "04bbfe957bbbff64ffdb4973056be753464be88150f5229fc32add6442e72f35",
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
		golden: "8c8fe0a06e5979ea5adad17d8be856c08010a26c5fcfbed992c6188f88d05afa",
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
