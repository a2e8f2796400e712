package repro_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro"
	"repro/internal/faultinject"
	"repro/internal/testutil"
)

// liveModel is the oracle for the live-mutation property tests: the
// matrix contents as plain per-row slices, mutated with the same
// semantics Mutate promises (replace → delete → append → update, all
// columns sorted). Rebuilding a CSR from the model and serving it cold
// is the ground truth every LivePipeline answer must be bit-identical
// to.
type liveModel struct {
	cols int
	rows [][]int32
	vals [][]float32
}

func newLiveModel(rows, cols, maxRowNNZ int, rng *rand.Rand) *liveModel {
	mo := &liveModel{cols: cols}
	for i := 0; i < rows; i++ {
		c, v := randRowDef(cols, maxRowNNZ, rng)
		mo.rows = append(mo.rows, c)
		mo.vals = append(mo.vals, v)
	}
	return mo
}

// randRowDef generates one sorted row with small-integer values —
// integer arithmetic keeps float32 sums exact under any association
// order, so reordered/merged/batched kernels must agree bit-for-bit
// with the serial reference.
func randRowDef(cols, maxNNZ int, rng *rand.Rand) ([]int32, []float32) {
	n := rng.Intn(maxNNZ + 1)
	seen := map[int32]bool{}
	var cs []int32
	for len(cs) < n {
		c := int32(rng.Intn(cols))
		if !seen[c] {
			seen[c] = true
			cs = append(cs, c)
		}
	}
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j] < cs[j-1]; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
	vs := make([]float32, len(cs))
	for i := range vs {
		vs[i] = float32(1 + rng.Intn(7))
	}
	return cs, vs
}

func (mo *liveModel) apply(t *testing.T, mu repro.Mutation) {
	t.Helper()
	for _, ru := range mu.ReplaceRows {
		cs := append([]int32(nil), ru.Def.Cols...)
		vs := append([]float32(nil), ru.Def.Vals...)
		for i := 1; i < len(cs); i++ {
			for j := i; j > 0 && cs[j] < cs[j-1]; j-- {
				cs[j], cs[j-1] = cs[j-1], cs[j]
				vs[j], vs[j-1] = vs[j-1], vs[j]
			}
		}
		mo.rows[ru.Row], mo.vals[ru.Row] = cs, vs
	}
	for _, r := range mu.DeleteRows {
		mo.rows[r], mo.vals[r] = nil, nil
	}
	for _, def := range mu.AppendRows {
		cs := append([]int32(nil), def.Cols...)
		vs := append([]float32(nil), def.Vals...)
		for i := 1; i < len(cs); i++ {
			for j := i; j > 0 && cs[j] < cs[j-1]; j-- {
				cs[j], cs[j-1] = cs[j-1], cs[j]
				vs[j], vs[j-1] = vs[j-1], vs[j]
			}
		}
		mo.rows = append(mo.rows, cs)
		mo.vals = append(mo.vals, vs)
	}
	for _, u := range mu.UpdateValues {
		found := false
		for i, c := range mo.rows[u.Row] {
			if int(c) == u.Col {
				mo.vals[u.Row][i] = u.Val
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("model: accepted value update for missing entry (%d,%d)", u.Row, u.Col)
		}
	}
}

func (mo *liveModel) matrix(t *testing.T) *repro.Matrix {
	t.Helper()
	m, err := repro.FromRows(len(mo.rows), mo.cols, mo.rows, mo.vals)
	if err != nil {
		t.Fatalf("model matrix: %v", err)
	}
	return m
}

// randMutation generates one valid mutation batch against the model's
// current shape.
func (mo *liveModel) randMutation(rng *rand.Rand) repro.Mutation {
	var mu repro.Mutation
	pickRow := func() int { return rng.Intn(len(mo.rows)) }
	switch rng.Intn(6) {
	case 0: // value updates on existing entries
		for k := 0; k < 1+rng.Intn(4); k++ {
			r := pickRow()
			if len(mo.rows[r]) == 0 {
				continue
			}
			c := mo.rows[r][rng.Intn(len(mo.rows[r]))]
			mu.UpdateValues = append(mu.UpdateValues,
				repro.ValueUpdate{Row: r, Col: int(c), Val: float32(1 + rng.Intn(7))})
		}
	case 1: // replace rows
		seen := map[int]bool{}
		for k := 0; k < 1+rng.Intn(3); k++ {
			r := pickRow()
			if seen[r] {
				continue
			}
			seen[r] = true
			cs, vs := randRowDef(mo.cols, 6, rng)
			mu.ReplaceRows = append(mu.ReplaceRows, repro.RowUpdate{Row: r, Def: repro.RowDef{Cols: cs, Vals: vs}})
		}
	case 2: // append rows
		for k := 0; k < 1+rng.Intn(3); k++ {
			cs, vs := randRowDef(mo.cols, 6, rng)
			mu.AppendRows = append(mu.AppendRows, repro.RowDef{Cols: cs, Vals: vs})
		}
	case 3: // delete rows
		seen := map[int]bool{}
		for k := 0; k < 1+rng.Intn(2); k++ {
			r := pickRow()
			if !seen[r] {
				seen[r] = true
				mu.DeleteRows = append(mu.DeleteRows, r)
			}
		}
	case 4: // mixed structural + value batch
		cs, vs := randRowDef(mo.cols, 6, rng)
		mu.ReplaceRows = append(mu.ReplaceRows, repro.RowUpdate{Row: pickRow(), Def: repro.RowDef{Cols: cs, Vals: vs}})
		cs2, vs2 := randRowDef(mo.cols, 6, rng)
		mu.AppendRows = append(mu.AppendRows, repro.RowDef{Cols: cs2, Vals: vs2})
		if len(cs) > 0 {
			mu.UpdateValues = append(mu.UpdateValues,
				repro.ValueUpdate{Row: mu.ReplaceRows[0].Row, Col: int(cs[rng.Intn(len(cs))]), Val: float32(1 + rng.Intn(7))})
		}
	default: // append + delete of an old row in one batch
		cs, vs := randRowDef(mo.cols, 6, rng)
		mu.AppendRows = append(mu.AppendRows, repro.RowDef{Cols: cs, Vals: vs})
		mu.DeleteRows = append(mu.DeleteRows, pickRow())
	}
	return mu
}

// intDense returns a rows×cols dense with small-integer entries (exact
// float32 arithmetic under any summation order).
func intDense(rows, cols int, rng *rand.Rand) *repro.Dense {
	d := &repro.Dense{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
	for i := range d.Data {
		d.Data[i] = float32(rng.Intn(5))
	}
	return d
}

// assertLiveMatchesModel asserts the live pipeline's matrix, SpMM, and
// SDDMM are bit-identical to rebuilding the model's matrix from scratch
// and serving it cold.
func assertLiveMatchesModel(t *testing.T, l *repro.LivePipeline, mo *liveModel, rng *rand.Rand) {
	t.Helper()
	ref := mo.matrix(t)
	got := l.Matrix()
	if !got.Equal(ref) {
		t.Fatalf("live matrix diverged from cold-rebuilt model (rows %d vs %d, nnz %d vs %d)",
			got.Rows, ref.Rows, got.NNZ(), ref.NNZ())
	}
	ctx := context.Background()
	x := intDense(ref.Cols, 3, rng)
	want, err := repro.SpMM(ref, x)
	if err != nil {
		t.Fatal(err)
	}
	y := &repro.Dense{Rows: ref.Rows, Cols: 3, Data: make([]float32, ref.Rows*3)}
	if err := l.SpMMIntoCtx(ctx, y, x); err != nil {
		t.Fatalf("live SpMM: %v", err)
	}
	for i := range want.Data {
		if y.Data[i] != want.Data[i] {
			t.Fatalf("SpMM bit-divergence at flat index %d: live %v, cold %v", i, y.Data[i], want.Data[i])
		}
	}
	xs := intDense(ref.Cols, 3, rng)
	ys := intDense(ref.Rows, 3, rng)
	wantS, err := repro.SDDMM(ref, xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	outS, err := sddmmOf(ctx, l, xs, ys)
	if err != nil {
		t.Fatalf("live SDDMM: %v", err)
	}
	for i := range wantS.Val {
		if outS.Val[i] != wantS.Val[i] {
			t.Fatalf("SDDMM bit-divergence at nnz %d: live %v, cold %v", i, outS.Val[i], wantS.Val[i])
		}
	}
}

func liveTestConfig() repro.Config {
	cfg := repro.DefaultConfig()
	cfg.Workers = 2
	cfg.PreprocessBudget = time.Hour
	return cfg
}

// TestLiveOverlayBitIdentity drives random mutation interleavings
// through online and sharded live pipelines with rebuilding disabled
// (the overlay never drains, so every answer exercises the merged
// base+overlay path) and asserts bit-identity with a cold rebuild after
// every batch. Cancelled-context mutations are interleaved and must
// change nothing.
func TestLiveOverlayBitIdentity(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, flavor := range []string{"online", "sharded"} {
		t.Run(flavor, func(t *testing.T) {
			defer testutil.CheckNoGoroutineLeak(t)()
			rng := rand.New(rand.NewSource(42))
			mo := newLiveModel(64, 48, 6, rng)
			m := mo.matrix(t)
			lcfg := repro.LiveConfig{RebuildDisabled: true}
			var l *repro.LivePipeline
			var err error
			if flavor == "online" {
				l, err = repro.NewLivePipelineCtx(context.Background(), m, liveTestConfig(), lcfg)
			} else {
				l, err = repro.NewLiveShardedPipelineCtx(context.Background(), m, liveTestConfig(), m.NNZ()/3+1, lcfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			assertLiveMatchesModel(t, l, mo, rng)
			for i := 0; i < 40; i++ {
				mu := mo.randMutation(rng)
				if i%7 == 3 {
					// A cancelled-mid-mutation context must leave the state
					// untouched whether the mutation would have re-skinned
					// (reskin builds under ctx) or gone to the overlay (no
					// ctx use, applies anyway — either is legal as long as
					// the published state matches the model).
					before := l.Epoch()
					if err := l.Mutate(cancelled, mu); err != nil {
						if l.Epoch() != before {
							t.Fatalf("failed mutation bumped epoch %d -> %d", before, l.Epoch())
						}
						assertLiveMatchesModel(t, l, mo, rng)
						continue
					}
				} else if err := l.Mutate(context.Background(), mu); err != nil {
					t.Fatalf("mutation %d: %v", i, err)
				}
				mo.apply(t, mu)
				assertLiveMatchesModel(t, l, mo, rng)
			}
			st := l.Stats()
			if st.Epoch != uint64(st.Mutations+st.Swaps) {
				t.Fatalf("epoch %d != mutations %d + swaps %d", st.Epoch, st.Mutations, st.Swaps)
			}
			if st.Swaps != 0 || st.RebuildsStarted != 0 {
				t.Fatalf("rebuilds ran with RebuildDisabled: %+v", st)
			}
			if st.OverlayRows == 0 && st.TailRows == 0 {
				t.Fatal("overlay never engaged: the test exercised nothing")
			}
		})
	}
}

// TestLiveValueReskinPublishesCleanState asserts that value-only
// mutations on a clean pipeline re-skin the base (no overlay, no
// rebuild) and stay bit-identical.
func TestLiveValueReskinPublishesCleanState(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	rng := rand.New(rand.NewSource(7))
	mo := newLiveModel(64, 48, 6, rng)
	l, err := repro.NewLivePipelineCtx(context.Background(), mo.matrix(t), liveTestConfig(), repro.LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		var mu repro.Mutation
		for len(mu.UpdateValues) == 0 {
			r := rng.Intn(len(mo.rows))
			if len(mo.rows[r]) > 0 {
				c := mo.rows[r][rng.Intn(len(mo.rows[r]))]
				mu.UpdateValues = append(mu.UpdateValues,
					repro.ValueUpdate{Row: r, Col: int(c), Val: float32(1 + rng.Intn(7))})
			}
		}
		if err := l.Mutate(context.Background(), mu); err != nil {
			t.Fatalf("value mutation %d: %v", i, err)
		}
		mo.apply(t, mu)
		assertLiveMatchesModel(t, l, mo, rng)
	}
	st := l.Stats()
	if st.Reskins != st.Mutations || st.Reskins == 0 {
		t.Fatalf("want every value-only mutation re-skinned, got %+v", st)
	}
	if st.OverlayRows != 0 || st.TailRows != 0 || st.RebuildsStarted != 0 {
		t.Fatalf("value-only mutations dirtied the overlay or armed rebuilds: %+v", st)
	}
	if st.StructEpoch != 0 {
		t.Fatalf("value-only mutations bumped the structural epoch to %d", st.StructEpoch)
	}
}

// TestLiveRebuildSwapDrainsOverlay mutates structurally with rebuilding
// on, waits for the background swap, and asserts the overlay drained
// into a fresh base under a bumped structural epoch — with the counter
// identities exact and serving still bit-identical.
func TestLiveRebuildSwapDrainsOverlay(t *testing.T) {
	for _, flavor := range []string{"online", "sharded"} {
		t.Run(flavor, func(t *testing.T) {
			defer testutil.CheckNoGoroutineLeak(t)()
			rng := rand.New(rand.NewSource(11))
			mo := newLiveModel(64, 48, 6, rng)
			m := mo.matrix(t)
			var l *repro.LivePipeline
			var err error
			if flavor == "online" {
				l, err = repro.NewLivePipelineCtx(context.Background(), m, liveTestConfig(), repro.LiveConfig{})
			} else {
				l, err = repro.NewLiveShardedPipelineCtx(context.Background(), m, liveTestConfig(), m.NNZ()/3+1, repro.LiveConfig{})
			}
			if err != nil {
				t.Fatal(err)
			}
			oldOnline, oldSharded := l.Online(), l.Sharded()
			for i := 0; i < 6; i++ {
				mu := mo.randMutation(rng)
				if err := l.Mutate(context.Background(), mu); err != nil {
					t.Fatalf("mutation %d: %v", i, err)
				}
				mo.apply(t, mu)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := l.WaitRebuilt(ctx); err != nil {
				t.Fatalf("WaitRebuilt: %v", err)
			}
			st := l.Stats()
			if st.OverlayRows != 0 || st.TailRows != 0 || st.OverlayNNZ != 0 {
				t.Fatalf("overlay not drained after rebuild: %+v", st)
			}
			if st.Swaps == 0 {
				t.Fatalf("no swap published: %+v", st)
			}
			if st.Epoch != uint64(st.Mutations+st.Swaps) {
				t.Fatalf("epoch %d != mutations %d + swaps %d", st.Epoch, st.Mutations, st.Swaps)
			}
			if st.RebuildsStarted != st.Swaps+st.RebuildsFailed+st.RebuildsCancelled {
				t.Fatalf("rebuild attempts %d != swaps %d + failed %d + cancelled %d",
					st.RebuildsStarted, st.Swaps, st.RebuildsFailed, st.RebuildsCancelled)
			}
			if st.StalenessSeconds != 0 {
				t.Fatalf("staleness %v after a clean swap", st.StalenessSeconds)
			}
			if flavor == "online" {
				if l.Online() == oldOnline {
					t.Fatal("swap did not replace the online base")
				}
			} else if l.Sharded() == oldSharded {
				t.Fatal("swap did not replace the sharded base")
			}
			if st.StructEpoch == 0 {
				t.Fatal("structural mutations did not bump the structural epoch")
			}
			assertLiveMatchesModel(t, l, mo, rng)
			// Structural mutations landing mid-rebuild must be replayed at
			// swap, never lost: run another round to cross the in-flight
			// window deliberately.
			for i := 0; i < 4; i++ {
				mu := mo.randMutation(rng)
				if err := l.Mutate(context.Background(), mu); err != nil {
					t.Fatalf("post-swap mutation %d: %v", i, err)
				}
				mo.apply(t, mu)
			}
			if err := l.WaitRebuilt(ctx); err != nil {
				t.Fatalf("WaitRebuilt 2: %v", err)
			}
			assertLiveMatchesModel(t, l, mo, rng)
			if err := l.Quiesce(ctx); err != nil {
				t.Fatalf("Quiesce: %v", err)
			}
			if err := l.Mutate(context.Background(), repro.Mutation{DeleteRows: []int{0}}); !errors.Is(err, repro.ErrQuiesced) {
				t.Fatalf("Mutate after Quiesce = %v, want ErrQuiesced", err)
			}
			// Reads keep serving the final state after quiesce.
			assertLiveMatchesModel(t, l, mo, rng)
		})
	}
}

// TestLiveMutationValidation exercises the all-or-nothing contract:
// every invalid batch is rejected whole with ErrMutation and the
// published state does not move.
func TestLiveMutationValidation(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	rng := rand.New(rand.NewSource(3))
	mo := newLiveModel(16, 12, 4, rng)
	l, err := repro.NewLivePipelineCtx(context.Background(), mo.matrix(t), liveTestConfig(),
		repro.LiveConfig{RebuildDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]repro.Mutation{
		"replace out of range": {ReplaceRows: []repro.RowUpdate{{Row: 16}}},
		"replace negative":     {ReplaceRows: []repro.RowUpdate{{Row: -1}}},
		"delete out of range":  {DeleteRows: []int{99}},
		"duplicate replace":    {ReplaceRows: []repro.RowUpdate{{Row: 3}, {Row: 3}}},
		"replace and delete":   {ReplaceRows: []repro.RowUpdate{{Row: 3}}, DeleteRows: []int{3}},
		"duplicate delete":     {DeleteRows: []int{3, 3}},
		"len mismatch":         {AppendRows: []repro.RowDef{{Cols: []int32{1, 2}, Vals: []float32{1}}}},
		"duplicate column":     {AppendRows: []repro.RowDef{{Cols: []int32{2, 2}, Vals: []float32{1, 1}}}},
		"column out of range":  {AppendRows: []repro.RowDef{{Cols: []int32{12}, Vals: []float32{1}}}},
		"negative column":      {AppendRows: []repro.RowDef{{Cols: []int32{-1}, Vals: []float32{1}}}},
		"NaN value":            {AppendRows: []repro.RowDef{{Cols: []int32{0}, Vals: []float32{float32(math.NaN())}}}},
		"Inf value update":     {UpdateValues: []repro.ValueUpdate{{Row: 0, Col: 0, Val: float32(math.Inf(1))}}},
		"update row range":     {UpdateValues: []repro.ValueUpdate{{Row: 77, Col: 0, Val: 1}}},
		"update col range":     {UpdateValues: []repro.ValueUpdate{{Row: 0, Col: 12, Val: 1}}},
		"update missing entry": {ReplaceRows: []repro.RowUpdate{{Row: 2, Def: repro.RowDef{Cols: []int32{5}, Vals: []float32{1}}}}, UpdateValues: []repro.ValueUpdate{{Row: 2, Col: 6, Val: 1}}},
		"valid plus one invalid": {
			AppendRows:   []repro.RowDef{{Cols: []int32{1}, Vals: []float32{2}}},
			UpdateValues: []repro.ValueUpdate{{Row: 0, Col: -1, Val: 1}},
		},
	}
	for name, mu := range cases {
		t.Run(name, func(t *testing.T) {
			before := l.Epoch()
			if err := l.Mutate(context.Background(), mu); !errors.Is(err, repro.ErrMutation) {
				t.Fatalf("Mutate = %v, want ErrMutation", err)
			}
			if l.Epoch() != before {
				t.Fatalf("rejected mutation bumped epoch %d -> %d", before, l.Epoch())
			}
		})
	}
	assertLiveMatchesModel(t, l, mo, rng)
	// The empty mutation is a no-op, not an error, and publishes nothing.
	before := l.Epoch()
	if err := l.Mutate(context.Background(), repro.Mutation{}); err != nil {
		t.Fatalf("empty mutation: %v", err)
	}
	if l.Epoch() != before {
		t.Fatal("empty mutation bumped the epoch")
	}
}

// TestLiveOverlayFull asserts the overlay bound rejects structural
// growth with ErrOverlayFull without corrupting state, and that the
// pipeline keeps serving.
func TestLiveOverlayFull(t *testing.T) {
	defer testutil.CheckNoGoroutineLeak(t)()
	rng := rand.New(rand.NewSource(5))
	mo := newLiveModel(16, 12, 4, rng)
	l, err := repro.NewLivePipelineCtx(context.Background(), mo.matrix(t), liveTestConfig(),
		repro.LiveConfig{RebuildDisabled: true, MaxOverlayRows: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		mu := repro.Mutation{DeleteRows: []int{i}}
		if err := l.Mutate(ctx, mu); err != nil {
			t.Fatalf("mutation %d: %v", i, err)
		}
		mo.apply(t, mu)
	}
	if err := l.Mutate(ctx, repro.Mutation{DeleteRows: []int{10}}); !errors.Is(err, repro.ErrOverlayFull) {
		t.Fatalf("third overlay row = %v, want ErrOverlayFull", err)
	}
	// Re-touching an already-overlaid row does not grow the overlay and
	// must still be accepted.
	mu := repro.Mutation{ReplaceRows: []repro.RowUpdate{{Row: 0, Def: repro.RowDef{Cols: []int32{1}, Vals: []float32{3}}}}}
	if err := l.Mutate(ctx, mu); err != nil {
		t.Fatalf("re-touch of overlaid row: %v", err)
	}
	mo.apply(t, mu)
	assertLiveMatchesModel(t, l, mo, rng)
}

// TestLiveFaultSites drives each live fault site: an overlay-append
// fault must reject the mutation atomically; rebuild-start and
// swap-publish faults must burn the retry budget and permanently
// degrade the pipeline to overlay-forever serving — still bit-correct,
// with the attempt ledger reconciling exactly.
func TestLiveFaultSites(t *testing.T) {
	t.Run("overlay.append", func(t *testing.T) {
		defer testutil.CheckNoGoroutineLeak(t)()
		defer faultinject.Reset()
		rng := rand.New(rand.NewSource(21))
		mo := newLiveModel(32, 24, 5, rng)
		l, err := repro.NewLivePipelineCtx(context.Background(), mo.matrix(t), liveTestConfig(),
			repro.LiveConfig{RebuildDisabled: true})
		if err != nil {
			t.Fatal(err)
		}
		restore := faultinject.ErrorAt("live.overlay.append")
		if err := l.Mutate(context.Background(), repro.Mutation{DeleteRows: []int{1}}); !errors.Is(err, faultinject.Err) {
			t.Fatalf("structural mutation under fault = %v, want faultinject.Err", err)
		}
		restore()
		if st := l.Stats(); st.Epoch != 0 || st.Mutations != 0 {
			t.Fatalf("failed mutation left a trace: %+v", st)
		}
		assertLiveMatchesModel(t, l, mo, rng)
	})
	for _, site := range []string{"live.rebuild.start", "live.swap.publish"} {
		t.Run(site, func(t *testing.T) {
			defer testutil.CheckNoGoroutineLeak(t)()
			defer faultinject.Reset()
			rng := rand.New(rand.NewSource(23))
			mo := newLiveModel(32, 24, 5, rng)
			l, err := repro.NewLivePipelineCtx(context.Background(), mo.matrix(t), liveTestConfig(),
				repro.LiveConfig{
					RebuildMaxAttempts: 2,
					RebuildRetryBase:   time.Millisecond,
					RebuildRetryMax:    2 * time.Millisecond,
				})
			if err != nil {
				t.Fatal(err)
			}
			restore := faultinject.ErrorAt(site)
			mu := repro.Mutation{DeleteRows: []int{1}}
			if err := l.Mutate(context.Background(), mu); err != nil {
				t.Fatalf("mutation: %v", err)
			}
			mo.apply(t, mu)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := l.WaitRebuilt(ctx); err != nil {
				t.Fatalf("WaitRebuilt: %v", err)
			}
			restore()
			deg, cause := l.Degraded()
			if !deg || !errors.Is(cause, faultinject.Err) {
				t.Fatalf("Degraded = %v, %v; want permanent degradation on faultinject.Err", deg, cause)
			}
			st := l.Stats()
			if st.Swaps != 0 || st.RebuildsStarted != 2 || st.RebuildsFailed != 2 || st.RebuildsCancelled != 0 {
				t.Fatalf("attempt ledger off after exhausted retries: %+v", st)
			}
			if st.OverlayRows == 0 {
				t.Fatalf("degraded pipeline lost its overlay: %+v", st)
			}
			// Overlay-forever: mutations still apply, serving stays exact,
			// and no new rebuild is ever armed.
			mu2 := repro.Mutation{DeleteRows: []int{2}}
			if err := l.Mutate(context.Background(), mu2); err != nil {
				t.Fatalf("post-degrade mutation: %v", err)
			}
			mo.apply(t, mu2)
			assertLiveMatchesModel(t, l, mo, rng)
			if st := l.Stats(); st.RebuildsStarted != 2 || st.Rebuilding {
				t.Fatalf("degraded pipeline armed another rebuild: %+v", st)
			}
		})
	}
}

// TestLiveUnmutatedFastPathNoAllocs pins the unmutated serving path:
// one atomic state load and the base pipeline's zero-allocation
// execution, nothing else.
func TestLiveUnmutatedFastPathNoAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	mo := newLiveModel(64, 48, 6, rng)
	m := mo.matrix(t)
	l, err := repro.NewLivePipelineCtx(context.Background(), m, liveTestConfig(), repro.LiveConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	x := intDense(m.Cols, 4, rng)
	y := &repro.Dense{Rows: m.Rows, Cols: 4, Data: make([]float32, m.Rows*4)}
	// Warm: decide the online trial and fill kernel scratch pools.
	for i := 0; i < 3; i++ {
		if err := l.SpMMIntoCtx(ctx, y, x); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := l.SpMMIntoCtx(ctx, y, x); err != nil {
			t.Fatal(err)
		}
	})
	if allocs >= 2 {
		t.Fatalf("unmutated live SpMMIntoCtx allocates %v objects per call, want ~0", allocs)
	}
}

// FuzzMutationLog feeds hostile mutation sequences — out-of-range rows,
// duplicate and unsorted columns, non-finite values, append/delete
// interleavings — through a live pipeline and its cold-rebuild oracle.
// Accepted batches must keep the pipeline bit-identical to the oracle;
// rejected batches must change nothing.
func FuzzMutationLog(f *testing.F) {
	// Each op is 4 bytes: kind, a, b, c.
	f.Add([]byte{0, 1, 2, 3})
	f.Add([]byte{1, 200, 0, 0})                         // replace far out of range
	f.Add([]byte{2, 3, 3, 9, 2, 3, 3, 9})               // duplicate columns
	f.Add([]byte{3, 0, 0, 0, 4, 15, 1, 7, 3, 15, 0, 0}) // append then delete the appended row
	f.Add([]byte{1, 3, 255, 1, 1, 3, 1, 255})           // duplicate replace of one row
	f.Add([]byte{5, 0, 0, 0, 5, 0, 0, 0, 5, 0, 0, 0})   // value-update storm on (0,*)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		rng := rand.New(rand.NewSource(1))
		mo := newLiveModel(12, 10, 3, rng)
		l, err := repro.NewLivePipelineCtx(context.Background(), mo.matrix(t), liveTestConfig(),
			repro.LiveConfig{RebuildDisabled: true, MaxOverlayRows: -1})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for len(data) >= 4 {
			kind, a, b, c := data[0], data[1], data[2], data[3]
			data = data[4:]
			var mu repro.Mutation
			switch kind % 6 {
			case 0: // delete
				mu.DeleteRows = []int{int(a)}
			case 1: // replace with a two-entry row (possibly unsorted/dup/out of range)
				mu.ReplaceRows = []repro.RowUpdate{{Row: int(a), Def: repro.RowDef{
					Cols: []int32{int32(b) - 1, int32(c) - 1},
					Vals: []float32{float32(b%5) + 1, float32(c%5) + 1},
				}}}
			case 2: // append
				mu.AppendRows = []repro.RowDef{{
					Cols: []int32{int32(a) - 1, int32(b) - 1},
					Vals: []float32{float32(a%5) + 1, float32(c%5) + 1},
				}}
			case 3: // append empty + delete
				mu.AppendRows = []repro.RowDef{{}}
				mu.DeleteRows = []int{int(a)}
			case 4: // replace + value update on the replaced row
				mu.ReplaceRows = []repro.RowUpdate{{Row: int(a) % 12, Def: repro.RowDef{
					Cols: []int32{int32(b % 10)}, Vals: []float32{2},
				}}}
				mu.UpdateValues = []repro.ValueUpdate{{Row: int(a) % 12, Col: int(c), Val: 3}}
			default: // raw value update
				mu.UpdateValues = []repro.ValueUpdate{{Row: int(a), Col: int(b), Val: float32(c%7) + 1}}
			}
			before := l.Epoch()
			if err := l.Mutate(ctx, mu); err != nil {
				if !errors.Is(err, repro.ErrMutation) && !errors.Is(err, repro.ErrOverlayFull) {
					t.Fatalf("unexpected mutation error class: %v", err)
				}
				if l.Epoch() != before {
					t.Fatalf("rejected mutation bumped epoch %d -> %d", before, l.Epoch())
				}
				continue
			}
			mo.apply(t, mu)
		}
		ref := mo.matrix(t)
		if !l.Matrix().Equal(ref) {
			t.Fatal("live matrix diverged from cold-rebuilt oracle")
		}
		x := intDense(ref.Cols, 2, rng)
		want, err := repro.SpMM(ref, x)
		if err != nil {
			t.Fatal(err)
		}
		y := &repro.Dense{Rows: ref.Rows, Cols: 2, Data: make([]float32, ref.Rows*2)}
		if err := l.SpMMIntoCtx(ctx, y, x); err != nil {
			t.Fatalf("live SpMM: %v", err)
		}
		for i := range want.Data {
			if y.Data[i] != want.Data[i] {
				t.Fatalf("SpMM bit-divergence at %d", i)
			}
		}
	})
}
