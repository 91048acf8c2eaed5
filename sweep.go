package sharqfec

import (
	"sharqfec/internal/core"
	"sharqfec/internal/eventq"
	"sharqfec/internal/topology"
)

// sweepParallelism caps the worker pool RunTimerSweep (and RunEnsemble)
// fan out to. Overridable in tests.
var sweepParallelism = runtimeGOMAXPROCS

// TimerSweepPoint is one point of the §7 timer-constant exploration:
// SHARQFEC run with the request/reply constants scaled by Multiplier.
type TimerSweepPoint struct {
	Multiplier float64
	C1, C2     float64
	D1, D2     float64
	// NACKs and Repairs count transmissions; DupShares counts shares
	// received redundantly (the suppression-quality signal).
	NACKs, Repairs, DupShares int
	// MeanRecovery is the mean delay (s) from a group's last original
	// packet to its reconstruction, averaged over late completions
	// (groups completed after their transmission window).
	MeanRecovery float64
	Completion   float64
}

// RunTimerSweep runs SHARQFEC on the Figure-10 scenario once per
// multiplier, scaling all four suppression-timer constants. The paper's
// future-work note observes fixed constants cannot fit every topology;
// the sweep exposes the latency/duplicate-suppression trade-off the
// constants control.
// Points run in parallel across a bounded worker pool: each point is an
// independent simulation with its own event queue and a seed derived
// only from (seed, multiplier position), so results are deterministic
// and returned in multiplier order regardless of scheduling.
func RunTimerSweep(seed uint64, multipliers []float64) ([]TimerSweepPoint, error) {
	if len(multipliers) == 0 {
		multipliers = []float64{0.5, 1, 2, 4}
	}
	out := make([]TimerSweepPoint, len(multipliers))
	err := runIndexed(len(multipliers), func(i int) error {
		pt, err := runTimerPoint(seed, multipliers[i])
		if err == nil {
			out[i] = *pt
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func runTimerPoint(seed uint64, mult float64) (*TimerSweepPoint, error) {
	r, err := newSHARQFECRun(figure10Session(seed, 256, 60), func(pcfg *core.Config) {
		pcfg.C1 *= mult
		pcfg.C2 *= mult
		pcfg.D1 *= mult
		pcfg.D2 *= mult
	})
	if err != nil {
		return nil, err
	}
	ipt := r.pcfg.InterPacket()
	k := r.pcfg.GroupK
	groupEnd := func(gid uint32) float64 {
		return 6 + float64(int(gid+1)*k)*ipt
	}
	var recoverySum float64
	var recoveries int
	r.onComplete = func(now eventq.Time, _ topology.NodeID, gid uint32) {
		if delay := now.Seconds() - groupEnd(gid); delay > 0 {
			recoverySum += delay
			recoveries++
		}
	}
	if err := r.run(); err != nil {
		return nil, err
	}

	pt := &TimerSweepPoint{
		Multiplier: mult,
		C1:         r.pcfg.C1, C2: r.pcfg.C2,
		D1: r.pcfg.D1, D2: r.pcfg.D2,
	}
	for _, ag := range r.agents {
		pt.NACKs += ag.Stats.NACKsSent
		pt.Repairs += ag.Stats.RepairsSent + ag.Stats.RepairsInjected
		pt.DupShares += ag.Stats.DupShares
	}
	if recoveries > 0 {
		pt.MeanRecovery = recoverySum / float64(recoveries)
	}
	pt.Completion = float64(r.completions()) / float64(len(r.e.spec.Receivers)*r.pcfg.NumGroups())
	return pt, nil
}
