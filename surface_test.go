package repro_test

import (
	"context"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro"
)

// unit is the serving contract every pipeline implements, plus the
// matrix accessor the helpers below size outputs from.
type unit interface {
	Matrix() *repro.Matrix
	SpMMIntoCtx(ctx context.Context, y *repro.Dense, x *repro.Dense) error
	SDDMMIntoCtx(ctx context.Context, out *repro.Matrix, x, y *repro.Dense) error
}

// spmmOf computes Y = S·X through u's one SpMM primitive into a fresh
// output sized for u's matrix.
func spmmOf(ctx context.Context, u unit, x *repro.Dense) (*repro.Dense, error) {
	y := repro.NewDense(u.Matrix().Rows, x.Cols)
	if err := u.SpMMIntoCtx(ctx, y, x); err != nil {
		return nil, err
	}
	return y, nil
}

// sddmmOf computes O = S ⊙ (Y·Xᵀ) through u's one SDDMM primitive into
// a clone of u's matrix.
func sddmmOf(ctx context.Context, u unit, x, y *repro.Dense) (*repro.Matrix, error) {
	out := u.Matrix().Clone()
	if err := u.SDDMMIntoCtx(ctx, out, x, y); err != nil {
		return nil, err
	}
	return out, nil
}

// serverSpMM serves Y = S·X for tenant id into a fresh output sized for
// the tenant's current matrix.
func serverSpMM(ctx context.Context, s *repro.Server, id string, x *repro.Dense) (*repro.Dense, error) {
	lp, err := s.LiveTenant(id)
	if err != nil {
		return nil, err
	}
	y := repro.NewDense(lp.Matrix().Rows, x.Cols)
	if err := s.SpMMIntoTenant(ctx, id, y, x); err != nil {
		return nil, err
	}
	return y, nil
}

// serverSDDMM serves O = S ⊙ (Y·Xᵀ) for tenant id into a clone of the
// tenant's current matrix.
func serverSDDMM(ctx context.Context, s *repro.Server, id string, x, y *repro.Dense) (*repro.Matrix, error) {
	lp, err := s.LiveTenant(id)
	if err != nil {
		return nil, err
	}
	out := lp.Matrix().Clone()
	if err := s.SDDMMIntoTenant(ctx, id, out, x, y); err != nil {
		return nil, err
	}
	return out, nil
}

// The exported SpMM/SDDMM surface is one primitive per operation per
// unit, plus the forms callers outside the package use. Anything else
// is a forwarding wrapper: growing the surface back fails here.
func TestServingSurface(t *testing.T) {
	want := map[string][]string{
		"Pipeline":        {"SDDMM", "SDDMMInto", "SDDMMIntoCtx", "SpMM", "SpMMInto", "SpMMIntoCtx"},
		"OnlinePipeline":  {"SDDMMIntoCtx", "SpMMIntoCtx"},
		"ShardedPipeline": {"SDDMMIntoCtx", "SpMMIntoCtx"},
		"LivePipeline":    {"SDDMMIntoCtx", "SpMMInto", "SpMMIntoCtx"},
		"Server":          {"SDDMMInto", "SDDMMIntoTenant", "SpMMInto", "SpMMIntoTenant"},
	}
	for _, v := range []any{
		(*repro.Pipeline)(nil), (*repro.OnlinePipeline)(nil), (*repro.ShardedPipeline)(nil),
		(*repro.LivePipeline)(nil), (*repro.Server)(nil),
	} {
		typ := reflect.TypeOf(v)
		var got []string
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; strings.HasPrefix(name, "SpMM") || strings.HasPrefix(name, "SDDMM") {
				got = append(got, name)
			}
		}
		sort.Strings(got)
		name := typ.Elem().Name()
		if !reflect.DeepEqual(got, want[name]) {
			t.Errorf("%s exports %v, want %v", name, got, want[name])
		}
	}
}
