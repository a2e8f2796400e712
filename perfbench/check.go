package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/integrity"
)

// checkRows is how many output rows each check recomputes, the same
// sample the server's shadow verification takes by default.
const checkRows = 8

// checkSpMM recomputes sampled rows of y = m·x in float64 from m, the
// matrix as the caller sees it (unpermuted), under integrity's
// reassociation tolerance. It runs outside every timed interval; its
// own time is kept for integrity.check_ms.
func (b *bench) checkSpMM(m *repro.Matrix, x, y *repro.Dense, seed uint64) error {
	t0 := time.Now()
	err := integrity.CheckSpMMRows(m, x, y, checkRows, seed, integrity.DefaultRelTol, integrity.DefaultAbsTol)
	b.checkTimes.add(time.Since(t0))
	return err
}

// checkSDDMM is checkSpMM for out = m ⊙ (y·xᵀ).
func (b *bench) checkSDDMM(m *repro.Matrix, x, y *repro.Dense, out *repro.Matrix, seed uint64) error {
	t0 := time.Now()
	err := integrity.CheckSDDMMRows(m, x, y, out.Val, checkRows, seed, integrity.DefaultRelTol, integrity.DefaultAbsTol)
	b.checkTimes.add(time.Since(t0))
	return err
}

// trialRecord is one §4 trial decision: which plan a tenant serves and
// why, so a run that lands on the other plan is explained, not merely
// slow.
type trialRecord struct {
	Round  int     `json:"round"`
	Tenant string  `json:"tenant"`
	RRWon  bool    `json:"rr_won"`
	RRms   float64 `json:"rr_ms"`
	NRms   float64 `json:"nr_ms"`
	Kernel string  `json:"kernel"`
}

// recordTrial books the trial of an online pipeline once it has
// decided. A trial is booked once, so callers may offer the current
// pipeline as often as they like; a value re-skin carries its base's
// decision over unchanged and is not a new trial.
func (b *bench) recordTrial(round int, tenant string, o *repro.OnlinePipeline) {
	if o == nil {
		return
	}
	done, won := o.Decided()
	if !done {
		return
	}
	rr, nr := o.TrialTimes()
	key := fmt.Sprintf("%s/%s/%d/%d", tenant, o.PlanFingerprint(), rr, nr)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.trialSeen[key] {
		return
	}
	b.trialSeen[key] = true
	b.trials = append(b.trials, trialRecord{
		Round: round, Tenant: tenant, RRWon: won,
		RRms: ms(rr), NRms: ms(nr), Kernel: o.Kernel().String(),
	})
}

// reportTrials sets the trial per-layer metrics: the share of trials
// the reordered plan won, and the median margin |rr−nr| ÷ min(rr, nr).
func (b *bench) reportTrials() {
	b.mu.Lock()
	trials := append([]trialRecord(nil), b.trials...)
	b.mu.Unlock()
	won := 0.0
	var margins []float64
	for _, t := range trials {
		if t.RRWon {
			won++
		}
		lo := min(t.RRms, t.NRms)
		if lo > 0 {
			d := t.RRms - t.NRms
			if d < 0 {
				d = -d
			}
			margins = append(margins, d/lo)
		}
	}
	if len(trials) > 0 {
		won /= float64(len(trials))
	}
	b.set("online.trial_rr_won", won)
	b.set("online.trial_margin", medianF(margins))
}
