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
	"math"

	"repro/internal/integrity"
	"repro/internal/kernels"
	"repro/internal/reorder"
)

// TrialExplain is the reorder-decision section of a TenantExplain or a
// PanelExplain: one online pipeline's width gate, lazy reordered
// build, and §4 online trial.
type TrialExplain struct {
	// Decided is true once the trial (or degradation) settled wide
	// calls, and before any wide call (every call then runs the plain
	// plan); ReorderingWon reports the verdict.
	Decided       bool `json:"decided"`
	ReorderingWon bool `json:"reordering_won"`
	// ReorderedSeconds/PlainSeconds are the medians of the trial's
	// timed runs (zero until a trial decided, and forever for a
	// degraded pipeline).
	ReorderedSeconds float64 `json:"reordered_seconds"`
	PlainSeconds     float64 `json:"plain_seconds"`
	// Degraded is true when the reordered build was abandoned
	// (budget, cancellation, error, panic); Reason records why.
	Degraded bool   `json:"degraded"`
	Reason   string `json:"degraded_reason,omitempty"`

	// The reorder gate: L2Bytes is the per-core L2 size it used,
	// ReferencedCols the distinct columns the matrix (or panel)
	// references, and MinReorderK the smallest width whose X
	// footprint, ReferencedCols·K·4 bytes, reaches ¾ of L2 — 0 when no
	// width does (reordering disabled). Build is the lazy reordered
	// build's state: "none" (no call has passed the gate), "building",
	// "built" or "degraded".
	L2Bytes        int64  `json:"l2_bytes"`
	ReferencedCols int    `json:"referenced_cols"`
	MinReorderK    int    `json:"min_reorder_k"`
	Build          string `json:"build"`
}

// trialExplain reports o's gate, build and trial.
func (o *OnlinePipeline) trialExplain() TrialExplain {
	done, won := o.Decided()
	rrT, nrT := o.TrialTimes()
	ex := TrialExplain{
		Decided:          done,
		ReorderingWon:    won,
		ReorderedSeconds: rrT.Seconds(),
		PlainSeconds:     nrT.Seconds(),
		L2Bytes:          o.gate.l2,
		ReferencedCols:   o.gate.cols,
		MinReorderK:      o.gate.minK,
		Build:            o.rr.state(),
	}
	if o.gate.minK == math.MaxInt {
		ex.MinReorderK = 0
	}
	if _, err := o.Degraded(); err != nil {
		ex.Degraded, ex.Reason = true, err.Error()
	}
	return ex
}

// PanelExplain is one row panel of a sharded tenant, with the panel's
// own reorder decision.
type PanelExplain struct {
	Lo     int          `json:"lo"`
	Hi     int          `json:"hi"`
	Kernel string       `json:"kernel"`
	Trial  TrialExplain `json:"trial"`
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
	// They differ only when the plan was loaded from a snapshot whose
	// stored kernel an earlier autotuner chose — exactly the
	// disagreement worth surfacing.
	Kernel        string         `json:"kernel"`
	KernelVerdict string         `json:"kernel_verdict"`
	Features      KernelFeatures `json:"features"`

	// Trial is the reorder decision of the base's first panel — the
	// whole matrix for an online tenant — as Features is its plan's.
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
	// The plan, features and trial sections report panel 0 — the whole
	// matrix unless the tenant is sharded, whose layout is in Panels.
	o := st.base.panels[0].pipe
	plan := o.current().plan
	ex.Mode = "online"
	ex.PlanFingerprint = st.base.fingerprint()
	ex.Kernel = plan.Kernel.String()
	ex.Features = plan.Features
	ex.KernelVerdict = reorder.ChooseKernel(plan.Features).String()
	ex.Trial = o.trialExplain()
	if t.live.sharded {
		ex.Mode = "sharded"
		ex.Panels = make([]PanelExplain, len(st.base.panels))
		for i, pn := range st.base.panels {
			ex.Panels[i] = PanelExplain{Lo: pn.lo, Hi: pn.hi,
				Kernel: pn.pipe.nr.Kernel().String(), Trial: pn.pipe.trialExplain()}
		}
	}
	return ex, nil
}
