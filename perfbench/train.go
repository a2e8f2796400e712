package main

import (
	"context"
	"time"

	"repro"
	"repro/internal/sparse"
)

// train is one offline GNN training step on the library path the
// examples use: A·X, Aᵀ·G and the SDDMM gradient A ⊙ (G·Xᵀ), K=64, on a
// scrambled-cluster matrix where both reordering rounds apply. No
// Server, trial, coalescer or integrity code runs, so the served plan
// is deterministic.
const trainK = 64

type trainStep struct {
	a, at    *repro.Matrix
	pa, pat  *repro.Pipeline
	x, y, z  *repro.Dense
	o        *repro.Matrix
	stepFlop float64
}

func newTrainStep(a, at *repro.Matrix, pa, pat *repro.Pipeline, x *repro.Dense) *trainStep {
	return &trainStep{
		a: a, at: at, pa: pa, pat: pat, x: x,
		y: repro.NewDense(a.Rows, trainK), z: repro.NewDense(at.Rows, trainK), o: a.Clone(),
		stepFlop: 3 * 2 * float64(a.NNZ()) * trainK,
	}
}

// run performs one step: Y = A·X, Z = Aᵀ·Y (Y standing in for the
// gradient G), O = A ⊙ (Y·Xᵀ).
func (s *trainStep) run(tr *tracer) error {
	step := tr.begin("train.step", 0)
	defer tr.end(step)
	if _, err := tr.call("pipeline.spmm", step, func() error { return s.pa.SpMMInto(s.y, s.x) }); err != nil {
		return err
	}
	if _, err := tr.call("pipeline.spmm", step, func() error { return s.pat.SpMMInto(s.z, s.y) }); err != nil {
		return err
	}
	_, err := tr.call("pipeline.sddmm", step, func() error { return s.pa.SDDMMInto(s.o, s.x, s.y) })
	return err
}

// check verifies the step's three results and books them as three
// operations.
func (s *trainStep) check(b *bench, seed uint64) {
	b.op(b.checkSpMM(s.a, s.x, s.y, seed))
	b.op(b.checkSpMM(s.at, s.y, s.z, seed+1))
	b.op(b.checkSDDMM(s.a, s.x, s.y, s.o, seed+2))
}

func runTrain(b *bench) error {
	ctx := context.Background()
	n := b.rows(32768)
	a, err := repro.GenerateScrambledClusters(n, n, n/8, b.seed)
	if err != nil {
		return err
	}
	at := sparse.Transpose(a)
	x := repro.NewRandomDense(n, trainK, b.seed+1)
	cfg := repro.DefaultConfig()
	b.note("matrix", a.String())

	// The set-up rounds only measure setup_s: train has no trial to
	// average, and one contiguous measured phase keeps the host's speed
	// drifts between rounds from splitting the step times into modes.
	var setups []time.Duration
	var last *trainStep
	seq := uint64(b.seed) << 32
	for r := 0; r < setupRounds(b); r++ {
		settle()
		repro.SetPlanCacheCapacity(repro.DefaultPlanCacheCapacity) // cold: setup_s is real preprocessing
		t0 := time.Now()
		pa, err := repro.NewPipeline(a, cfg)
		if err != nil {
			return err
		}
		pat, err := repro.NewPipeline(at, cfg)
		if err != nil {
			return err
		}
		s := newTrainStep(a, at, pa, pat, x)
		err = s.run(nil)
		setups = append(setups, time.Since(t0))
		if err != nil {
			return err
		}
		s.check(b, seq)
		seq += 3
		last = s
	}
	var lat samples
	steal := startSteal()
	flops, wall, err := trainPhase(b, last, b.seconds, &lat, &seq)
	if err != nil {
		return err
	}
	steal.stop(b)
	if lat.n() == 0 {
		return errNoSamples
	}
	b.note("setup_rounds_s", secondsOf(setups))
	b.note("samples", lat.n())
	b.note("plan_a", last.pa.Plan().Describe())

	sim, err := simGFLOPs([]*repro.Pipeline{last.pa, last.pat}, trainK)
	if err != nil {
		return err
	}
	b.setEndToEnd(setups, flops, wall, &lat, sim)

	// Mutation probe against a live pipeline over A (library path).
	lp, err := repro.NewLivePipelineCtx(ctx, a, cfg, repro.LiveConfig{})
	if err != nil {
		return err
	}
	var read func() error
	if b.traced {
		y := repro.NewDense(n, trainK)
		read = func() error {
			if err := lp.SpMMInto(y, x); err != nil {
				return err
			}
			seq++
			return b.checkSpMM(lp.Matrix(), x, y, seq)
		}
	}
	if err := b.mutationProbe(liveTarget{lp: lp, mutate: lp.Mutate}, read); err != nil {
		return err
	}

	if b.traced {
		return b.layers(ctx, layerInputs{m: a, shard: a, shardNNZ: a.NNZ()/2 + 1, k: trainK})
	}
	return nil
}

// trainPhase runs steps for d and returns the flops and wall time of
// the whole phase.
func trainPhase(b *bench, s *trainStep, d time.Duration, lat *samples, seq *uint64) (float64, time.Duration, error) {
	var flops float64
	var wall time.Duration
	for _, sl := range slices(b, d) {
		t0 := time.Now()
		var hf float64
		for time.Since(t0) < sl.d {
			st := time.Now()
			if err := s.run(sl.tr); err != nil {
				return 0, 0, err
			}
			lat.add(time.Since(st))
			hf += s.stepFlop
			s.check(b, *seq) // outside the step's own time
			*seq += 3
		}
		hw := time.Since(t0)
		b.overhead(sl.part, hf, hw)
		flops, wall = flops+hf, wall+hw
	}
	return flops, wall, nil
}
