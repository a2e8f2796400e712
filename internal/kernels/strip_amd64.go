//go:build !purego

package kernels

// addStrips adds the n (col, val) pairs of a strided run (see run) into
// y[0:k&^3], where y is an output row and x the row-major k-column data
// of X with xrows rows. It walks the run once per 16-column strip and
// then once per remaining 4-column strip; each lane starts at +0 (or at
// y's value when accum is set) and adds v·X[c][lane] in pair order with
// separate MULPS and ADDPS, so each lane rounds exactly as Go's scalar
// MULSS/ADDSS code does. It returns false, leaving y partly written, on
// a column outside [0, xrows). Written in SSE, the amd64 baseline.
//
//go:noescape
func addStrips(y, x *float32, k, xrows int, cols *int32, vals *float32, n, stride int, accum bool) (ok bool)
