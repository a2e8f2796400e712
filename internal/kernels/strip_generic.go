//go:build !amd64 || purego

package kernels

import "unsafe"

// StripPath names the strip primitive every SpMM row loop runs on:
// "avx2" or "sse" on amd64, "purego" elsewhere and under the purego
// build tag.
func StripPath() string { return "purego" }

// at returns pair j of r.
func (r run) at(j int) (int32, float32) {
	o := uintptr(j * r.stride)
	return *(*int32)(unsafe.Add(unsafe.Pointer(r.cols), o)),
		*(*float32)(unsafe.Add(unsafe.Pointer(r.vals), o))
}

// addRows is the portable form of the strip primitive (see
// strip_amd64.go): the same index checks and the same per-lane sums in
// the same order, blocked in strips of 8, then 4, columns, and a last
// walk with one accumulator per column for the K%4 left. Each product
// is converted to float32 before the add: the Go spec lets a compiler
// fuse x*y+z into one FMA (arm64, ppc64 and s390x do) but never across
// an explicit conversion, so every target rounds the product as SSE's
// MULPS does.
func addRows(y *float32, dst *int32, yrows int, rowptr *int32, lo, hi int, cols *int32, vals *float32, npairs, stride int, x *float32, k, xrows int, accum bool) (ok bool) {
	k4 := k &^ 3
	yd, xd := unsafe.Slice(y, yrows*k), unsafe.Slice(x, xrows*k)
	ptr := unsafe.Slice(rowptr, hi+1)
	var dm []int32
	if dst != nil {
		dm = unsafe.Slice(dst, hi)
	}
	p := run{cols, vals, npairs, stride}
	for i := lo; i < hi; i++ {
		a, b := int(ptr[i]), int(ptr[i+1])
		if uint(b) > uint(npairs) || uint(a) > uint(b) {
			return false
		}
		r := i
		if dm != nil {
			r = int(dm[i])
		}
		if uint(r) >= uint(yrows) {
			return false
		}
		for j := a; j < b; j++ {
			if c, _ := p.at(j); uint(c) >= uint(xrows) {
				return false
			}
		}
		yr := yd[r*k : r*k+k]
		off := 0
		for ; off+8 <= k4; off += 8 {
			yo := yr[off : off+8 : off+8]
			var a0, a1, a2, a3, a4, a5, a6, a7 float32
			if accum {
				a0, a1, a2, a3, a4, a5, a6, a7 = yo[0], yo[1], yo[2], yo[3], yo[4], yo[5], yo[6], yo[7]
			}
			for j := a; j < b; j++ {
				c, v := p.at(j)
				o := int(c)*k + off
				xr := xd[o : o+8 : o+8]
				a0 += float32(v * xr[0])
				a1 += float32(v * xr[1])
				a2 += float32(v * xr[2])
				a3 += float32(v * xr[3])
				a4 += float32(v * xr[4])
				a5 += float32(v * xr[5])
				a6 += float32(v * xr[6])
				a7 += float32(v * xr[7])
			}
			yo[0], yo[1], yo[2], yo[3] = a0, a1, a2, a3
			yo[4], yo[5], yo[6], yo[7] = a4, a5, a6, a7
		}
		if off < k4 {
			yo := yr[off : off+4 : off+4]
			var a0, a1, a2, a3 float32
			if accum {
				a0, a1, a2, a3 = yo[0], yo[1], yo[2], yo[3]
			}
			for j := a; j < b; j++ {
				c, v := p.at(j)
				o := int(c)*k + off
				xr := xd[o : o+4 : o+4]
				a0 += float32(v * xr[0])
				a1 += float32(v * xr[1])
				a2 += float32(v * xr[2])
				a3 += float32(v * xr[3])
			}
			yo[0], yo[1], yo[2], yo[3] = a0, a1, a2, a3
			off += 4
		}
		if n := k - off; n > 0 {
			// The last one to three columns, one accumulator each.
			yo := yr[off:k:k]
			var acc [3]float32
			if accum {
				copy(acc[:], yo)
			}
			for j := a; j < b; j++ {
				c, v := p.at(j)
				for t, xv := range xd[int(c)*k+off:][:n] {
					acc[t] += float32(v * xv)
				}
			}
			copy(yo, acc[:n])
		}
	}
	return true
}
