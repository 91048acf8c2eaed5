package sharqfec

// Cross-engine equivalence over a seed ensemble. Digests pin one seed
// each; they cannot say whether an engine's results are right, only
// whether they moved. These bands pin the ensemble statistics instead:
// the reference means were recorded on 24 seeds with the sequential
// engine (one global loss stream, per-source pruned trees) before the
// zone-sharded engine (per-direction loss streams, fan plans and spans)
// replaced it. Both engines landed inside the bands on the same seeds;
// any engine that models the same network must.

import (
	"math"
	"testing"
)

// ensembleBand is one protocol's reference ensemble: the means of the
// recovery totals over Seeds(1, 24) at 512 packets on Figure 10.
type ensembleBand struct {
	proto                    Protocol
	nacks, repairs, injected float64
	completion               float64
}

var engineEnsembleBands = []ensembleBand{
	{proto: SHARQFEC, nacks: 509.92, repairs: 1285.33, injected: 524.83, completion: 0.999814},
	{proto: SRM, nacks: 966.25, repairs: 2631.42, injected: 0, completion: 0.9999964},
}

// Stated bands: totals within ±10 % of the reference mean (the seed
// standard deviation is about 11 % of the mean for SHARQFEC NACKs, so
// a 24-seed mean moves about 2.3 %), completion within ±0.1 %.
const (
	ensembleTotalsBand     = 0.10
	ensembleCompletionBand = 0.001
)

// raceDetector is set under -race (race_test.go).
var raceDetector bool

func TestEngineEnsembleBands(t *testing.T) {
	if testing.Short() {
		t.Skip("48-run ensemble")
	}
	if raceDetector {
		// The bands check simulated outcomes, which -race cannot change;
		// it would only stretch ~20 s to ~8 min. The ensemble pool's
		// concurrency is covered by TestEnsembleParallelMatchesSerial.
		t.Skip("outcome check; slowed ~20x by the race detector")
	}
	for _, band := range engineEnsembleBands {
		t.Run(band.proto.String(), func(t *testing.T) {
			ens, err := RunEnsemble(DataConfig{Protocol: band.proto, NumPackets: 512}, Seeds(1, 24))
			if err != nil {
				t.Fatal(err)
			}
			var nacks, repairs, injected, completion float64
			for _, r := range ens.Runs {
				nacks += float64(r.NACKsSent)
				repairs += float64(r.RepairsSent)
				injected += float64(r.RepairsInjected)
				completion += r.CompletionRate
			}
			n := float64(len(ens.Runs))
			check := func(name string, got, want, rel float64) {
				t.Helper()
				if math.Abs(got-want) > rel*want {
					t.Errorf("%s mean %.2f outside %.2f ±%g%%", name, got, want, 100*rel)
				}
			}
			check("NACKs", nacks/n, band.nacks, ensembleTotalsBand)
			check("repairs", repairs/n, band.repairs, ensembleTotalsBand)
			check("injected", injected/n, band.injected, ensembleTotalsBand)
			check("completion", completion/n, band.completion, ensembleCompletionBand)
			t.Logf("means: NACKs %.2f repairs %.2f injected %.2f completion %.7f",
				nacks/n, repairs/n, injected/n, completion/n)
		})
	}
}
