package repro

// /debug/explain: one JSON document that answers "why is this tenant
// slow?" without grepping five metric families. Server.Explain joins,
// for a single tenant, the plan identity (cache fingerprint), the
// autotuner's structural features and verdict, the §4 trial outcome,
// the live-mutation and quarantine state, the shard layout, the
// process-wide kernel attribution and SIMD path, and the SLO watchdog —
// everything the decision-event ring references, resolved to current
// values.

import (
	"repro/internal/integrity"
	"repro/internal/kernels"
	"repro/internal/plancache"
	"repro/internal/reorder"
)

// TrialExplain is the §4 online-trial section of a TenantExplain.
type TrialExplain struct {
	// Decided is true once the first-iteration trial (or degradation)
	// settled the pipeline; ReorderingWon reports the verdict.
	Decided       bool `json:"decided"`
	ReorderingWon bool `json:"reordering_won"`
	// ReorderedSeconds/PlainSeconds are the trial's measured wall
	// times (zero until decided, and forever for a degraded pipeline).
	ReorderedSeconds float64 `json:"reordered_seconds"`
	PlainSeconds     float64 `json:"plain_seconds"`
	// Degraded is true when the reordered build was abandoned
	// (budget, cancellation, error, panic); Reason records why.
	Degraded bool   `json:"degraded"`
	Reason   string `json:"degraded_reason,omitempty"`
}

// PanelExplain is one row panel of a sharded tenant.
type PanelExplain struct {
	Lo     int    `json:"lo"`
	Hi     int    `json:"hi"`
	Kernel string `json:"kernel"`
}

// TenantExplain is the /debug/explain document for one tenant: the
// full serving decision chain joined into one place.
type TenantExplain struct {
	Tenant string `json:"tenant"`
	// Mode is "online" (§4 trial between reordered and plain plans) or
	// "sharded" (nnz-balanced row panels, each with its own plan).
	Mode string `json:"mode"`

	// PlanFingerprint is the plan-cache identity of the base the
	// tenant is serving from right now (the same fingerprint plan_swap
	// and trial_winner events carry).
	PlanFingerprint string `json:"plan_fingerprint"`
	Epoch           uint64 `json:"epoch"`
	StructEpoch     uint32 `json:"struct_epoch"`
	Rows            int    `json:"rows"`
	Cols            int    `json:"cols"`
	NNZ             int    `json:"nnz"`

	// Kernel is the strategy a call arriving now executes on;
	// KernelVerdict is what ChooseKernel says the features warrant.
	// They differ under a Config.Kernel override (KernelOverridden), or
	// with KernelOverridden false when the plan was loaded from a
	// snapshot whose stored kernel an earlier autotuner chose —
	// exactly the disagreements worth surfacing.
	Kernel           string         `json:"kernel"`
	KernelVerdict    string         `json:"kernel_verdict"`
	KernelOverridden bool           `json:"kernel_overridden"`
	Features         KernelFeatures `json:"features"`

	Trial TrialExplain `json:"trial"`
	// Mispicks counts autotuner-feedback windows where the serving
	// plan underperformed the measured trial loser (DESIGN.md §16).
	Mispicks int64 `json:"mispicks"`

	Live      LiveStats       `json:"live"`
	Integrity integrity.Stats `json:"integrity"`
	// Panels is the row-panel layout of a sharded tenant (empty for
	// online tenants).
	Panels []PanelExplain `json:"panels,omitempty"`

	// Attribution is the process-wide per-kernel execution summary
	// (effective GFLOP/s, GB/s, load imbalance) — shared by all
	// tenants, included so one document carries the whole chain.
	Attribution []kernels.AttributionSummary `json:"kernel_attribution"`
	// SIMD names the strip primitive every SpMM row loop in the process
	// runs on (kernels.StripPath): "avx2", "sse" or "purego". The
	// results are the same bits on each; a host without AVX2 is slower.
	SIMD string `json:"simd"`

	SLO SLOStatus `json:"slo"`
}

// Explain assembles the /debug/explain document for the tenant
// registered under id (ErrUnknownTenant otherwise). The document is a
// fresh snapshot on every call; fields drawn from different atomics
// are individually consistent, not mutually transactional.
func (s *Server) Explain(id string) (*TenantExplain, error) {
	t, err := s.tenantByID(id)
	if err != nil {
		return nil, err
	}
	st := t.live.state.Load()
	ex := &TenantExplain{
		Tenant:      id,
		Epoch:       st.epoch,
		StructEpoch: st.structEpoch,
		Rows:        st.cur.Rows,
		Cols:        st.cur.Cols,
		NNZ:         st.cur.NNZ(),
		Mispicks:    t.live.Mispicked(),
		Live:        t.live.Stats(),
		Integrity:   t.integ.Stats(),
		Attribution: kernels.Attribution(),
		SIMD:        kernels.StripPath(),
		SLO:         t.slo.status(),
	}
	cfg := st.baseCfg()
	var plan *Plan
	if o := st.online; o != nil {
		ex.Mode = "online"
		served, variant := o.current(), plancache.NR
		if served == o.rr.Load() {
			variant = plancache.Full
		}
		plan = served.plan
		ex.PlanFingerprint = plancache.Fingerprint(st.baseM, cfg, variant)
		done, won := o.Decided()
		rrT, nrT := o.TrialTimes()
		deg, derr := o.Degraded()
		ex.Trial = TrialExplain{
			Decided:          done,
			ReorderingWon:    won,
			ReorderedSeconds: rrT.Seconds(),
			PlainSeconds:     nrT.Seconds(),
			Degraded:         deg,
		}
		if derr != nil {
			ex.Trial.Reason = derr.Error()
		}
	} else {
		sp := st.sharded
		ex.Mode = "sharded"
		// A sharded base has one plan per panel; the fingerprint
		// identifies the fused base matrix (what plan_swap events
		// carry), the features/kernel sections report panel 0 with the
		// full layout in Panels.
		ex.PlanFingerprint = plancache.Fingerprint(st.baseM, cfg, plancache.Full)
		plan = sp.panels[0].pipe.plan
		ex.Panels = make([]PanelExplain, sp.Panels())
		for i := range ex.Panels {
			lo, hi := sp.PanelRange(i)
			ex.Panels[i] = PanelExplain{Lo: lo, Hi: hi, Kernel: sp.PanelKernel(i).String()}
		}
	}
	if plan != nil {
		ex.Kernel = plan.Kernel.String()
		ex.Features = plan.Features
		ex.KernelVerdict = reorder.ChooseKernel(plan.Features).String()
		ex.KernelOverridden = plan.Cfg.Kernel != KernelAuto && plan.Cfg.Kernel.Valid()
	}
	return ex, nil
}
