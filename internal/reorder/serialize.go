package reorder

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"repro/internal/sparse"
)

// Plan serialization for the paper's offline scenario (§5.4: "reordering
// a graph for graph neural network inference ... incurs little overhead
// at compile-time"): the permutations and decision bits of a Plan are
// written to a compact binary file at preprocessing time and re-applied
// at deployment time without re-running LSH or clustering.
//
// Format v1 (little-endian), written by WritePlan:
//
//	magic   uint32 = 0x52525032 ("2PRR")
//	version uint32 = 1
//	rows    uint32
//	flags   uint32 (layout below — planFlag* is the single source of truth)
//	rowPerm   [rows]uint32
//	restOrder [rows]uint32
//	crc32   uint32 (IEEE, over everything above)
//	footer  uint32 = 0x444E4531 ("1END")
//
// The CRC-checksummed footer lets ReadPlan distinguish a complete,
// intact file from a truncated or bit-flipped one — a corrupted plan is
// rejected with ErrPlanFormat instead of being applied (a flipped bit
// inside a permutation can still yield a *valid* permutation, which the
// structural checks alone would accept). The legacy v0 format (magic
// "1PRR", no version field, no footer) is still readable.
const (
	planMagicV0     = 0x52525031
	planMagicV1     = 0x52525032
	planVersion     = 1
	planFooterMagic = 0x444E4531
)

// v1 flag-word layout — the single place the bit assignments live.
// Every producer (WritePlan) and consumer (ReadPlan, Apply) goes
// through these constants, and any bit not assigned a meaning here is
// corruption: ReadPlan rejects it with ErrPlanFormat instead of
// silently ignoring it, so a future format revision cannot be
// half-understood by an old reader.
//
//	bit  0       round 1 (row reordering) applied
//	bit  1       round 2 (rest ordering) applied
//	bits 2-7     reserved — must be zero
//	bits 8-11    kernel choice (Kernel; Apply re-resolves all but rowwise and merge)
//	bits 12-31   structural epoch (low 20 bits of Config.Epoch)
//
// Legacy v0 files predate everything past bit 1; a v0 flags word with
// any higher bit set is likewise rejected.
const (
	planFlagRound1       = 1 << 0
	planFlagRound2       = 1 << 1
	planFlagReservedMask = 0xFC // bits 2-7
	planFlagKernelShift  = 8
	planFlagKernelMask   = 0xF // 4 bits, after shift
	planFlagEpochShift   = 12
	planFlagEpochMask    = 0xFFFFF // 20 bits, after shift
	planFlagV0Known      = planFlagRound1 | planFlagRound2
)

// ErrPlanFormat is wrapped by all plan-deserialization failures.
var ErrPlanFormat = errors.New("reorder: bad plan file")

// WritePlan serialises the plan's permutations to w in format v1. The
// whole file is encoded into one buffer and written with a single
// Write, so an io.Writer that either fully succeeds or fully fails
// (e.g. a bytes.Buffer, or a pipe with one reader) never observes a
// torn plan; for crash-durable on-disk atomicity use WritePlanFile.
func WritePlan(w io.Writer, p *Plan) error {
	rows := len(p.RowPerm)
	if len(p.RestOrder) != rows {
		return fmt.Errorf("reorder: plan permutations of unequal length")
	}
	var flags uint32
	if p.Round1Applied {
		flags |= planFlagRound1
	}
	if p.Round2Applied {
		flags |= planFlagRound2
	}
	if !p.Kernel.Valid() {
		return fmt.Errorf("reorder: plan has invalid kernel %v", p.Kernel)
	}
	// The tuned kernel choice rides along so a deployed plan replays the
	// kernel it was tuned for. Zero (KernelAuto, and every pre-kernel v1
	// file) means "re-resolve at Apply time".
	flags |= uint32(p.Kernel) << planFlagKernelShift
	// The structural epoch of a live matrix is stamped into the high
	// bits so a snapshot taken at epoch N is rejected at Apply time for
	// any other epoch — a crash between mutation and snapshot can leave
	// a stale file on disk, and "stale" must read as a miss, never as a
	// plan for the wrong structure.
	flags |= (p.Cfg.Epoch & planFlagEpochMask) << planFlagEpochShift
	buf := make([]byte, 16+8*rows+8)
	binary.LittleEndian.PutUint32(buf[0:], planMagicV1)
	binary.LittleEndian.PutUint32(buf[4:], planVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(rows))
	binary.LittleEndian.PutUint32(buf[12:], flags)
	off := 16
	for _, perm := range [][]int32{p.RowPerm, p.RestOrder} {
		for _, v := range perm {
			binary.LittleEndian.PutUint32(buf[off:], uint32(v))
			off += 4
		}
	}
	binary.LittleEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[:off]))
	binary.LittleEndian.PutUint32(buf[off+4:], planFooterMagic)
	_, err := w.Write(buf)
	return err
}

// WritePlanFile writes the plan to path atomically and durably: the
// bytes go to a temporary file in path's directory, which is fsynced,
// renamed over path, and the directory entry is fsynced too. A reader
// (or a crash) therefore observes either the previous file or the
// complete new one — never a torn mixture — and a concurrent
// WritePlanFile to the same path is safe: one of the writers wins
// whole.
func WritePlanFile(path string, p *Plan) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".plan-tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = WritePlan(tmp, p); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Persist the rename itself: fsync the containing directory. Best
	// effort on filesystems that refuse to sync directories.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// SavedPlan is the deserialised form of a plan file: just the decisions
// and permutations, without the matrices.
type SavedPlan struct {
	Rows          int
	Round1Applied bool
	Round2Applied bool
	// Kernel is the stored kernel choice; KernelAuto for legacy files
	// written before kernel tuning existed. Apply replays a stored
	// row-wise or merge choice and re-resolves anything else.
	Kernel Kernel
	// Epoch is the structural epoch (low 20 bits of Config.Epoch) the
	// snapshot was taken at; 0 for immutable pipelines and legacy files.
	// Apply rejects a mismatch against the target Config's epoch.
	Epoch   uint32
	RowPerm []int32
	// RestOrder is the leftover-part processing order.
	RestOrder []int32
}

// ReadPlan parses a plan file in format v1 (with CRC verification) or
// the legacy v0 format. Each permutation is read with bulk io.ReadFull
// calls over a bounded chunk buffer (no per-element binary.Read, and no
// huge up-front byte allocation for a corrupt header claiming billions
// of rows: the permutation slices grow only as bytes actually arrive).
// Truncation, a bad checksum, a missing footer, or a stored order that
// is not a permutation all fail with a wrapped ErrPlanFormat — a
// corrupted plan is never returned for Apply to act on.
func ReadPlan(r io.Reader) (*SavedPlan, error) {
	var head [16]byte
	if _, err := io.ReadFull(r, head[:4]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrPlanFormat, err)
	}
	var (
		rows   int
		flags  uint32
		crc    hash.Hash32
		legacy bool
	)
	switch magic := binary.LittleEndian.Uint32(head[0:]); magic {
	case planMagicV0:
		legacy = true
		if _, err := io.ReadFull(r, head[4:12]); err != nil {
			return nil, fmt.Errorf("%w: header: %v", ErrPlanFormat, err)
		}
		rows = int(binary.LittleEndian.Uint32(head[4:]))
		flags = binary.LittleEndian.Uint32(head[8:])
	case planMagicV1:
		if _, err := io.ReadFull(r, head[4:16]); err != nil {
			return nil, fmt.Errorf("%w: header: %v", ErrPlanFormat, err)
		}
		if v := binary.LittleEndian.Uint32(head[4:]); v != planVersion {
			return nil, fmt.Errorf("%w: unsupported version %d", ErrPlanFormat, v)
		}
		rows = int(binary.LittleEndian.Uint32(head[8:]))
		flags = binary.LittleEndian.Uint32(head[12:])
		crc = crc32.NewIEEE()
		crc.Write(head[:16])
	default:
		return nil, fmt.Errorf("%w: bad magic %#x", ErrPlanFormat, magic)
	}
	if rows < 0 || rows > 1<<30 {
		return nil, fmt.Errorf("%w: implausible row count %d", ErrPlanFormat, rows)
	}
	if legacy && flags&^uint32(planFlagV0Known) != 0 {
		return nil, fmt.Errorf("%w: unknown v0 flag bits %#x", ErrPlanFormat, flags)
	}
	if !legacy && flags&planFlagReservedMask != 0 {
		return nil, fmt.Errorf("%w: reserved flag bits set %#x", ErrPlanFormat, flags)
	}
	sp := &SavedPlan{
		Rows:          rows,
		Round1Applied: flags&planFlagRound1 != 0,
		Round2Applied: flags&planFlagRound2 != 0,
		Kernel:        Kernel(flags >> planFlagKernelShift & planFlagKernelMask),
		Epoch:         flags >> planFlagEpochShift & planFlagEpochMask,
	}
	if !sp.Kernel.Valid() {
		return nil, fmt.Errorf("%w: unknown kernel %d", ErrPlanFormat, uint8(sp.Kernel))
	}
	for _, dst := range []*[]int32{&sp.RowPerm, &sp.RestOrder} {
		perm, err := readPermutation(r, rows, crc)
		if err != nil {
			return nil, err
		}
		if !sparse.IsPermutation(perm, rows) {
			return nil, fmt.Errorf("%w: stored order is not a permutation", ErrPlanFormat)
		}
		*dst = perm
	}
	if crc != nil {
		var foot [8]byte
		if _, err := io.ReadFull(r, foot[:]); err != nil {
			return nil, fmt.Errorf("%w: truncated footer: %v", ErrPlanFormat, err)
		}
		if got, want := binary.LittleEndian.Uint32(foot[0:]), crc.Sum32(); got != want {
			return nil, fmt.Errorf("%w: checksum mismatch (file %#x, computed %#x)", ErrPlanFormat, got, want)
		}
		if m := binary.LittleEndian.Uint32(foot[4:]); m != planFooterMagic {
			return nil, fmt.Errorf("%w: bad footer magic %#x", ErrPlanFormat, m)
		}
	}
	return sp, nil
}

// ReadPlanFile opens and parses path with ReadPlan, additionally
// rejecting trailing garbage after the footer (a concatenation or
// copy-paste accident is corruption for a file, even though a stream
// may legitimately carry further records).
func ReadPlanFile(path string) (*SavedPlan, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sp, err := ReadPlan(f)
	if err != nil {
		return nil, err
	}
	var one [1]byte
	if n, _ := f.Read(one[:]); n != 0 {
		return nil, fmt.Errorf("%w: trailing bytes after footer", ErrPlanFormat)
	}
	return sp, nil
}

// readPermutation reads n little-endian uint32s in bounded chunks,
// growing the result incrementally so a lying header cannot force a
// gigantic allocation before the stream runs dry. When crc is non-nil
// every consumed byte is folded into it.
func readPermutation(r io.Reader, n int, crc hash.Hash32) ([]int32, error) {
	const chunkWords = 16 << 10
	perm := make([]int32, 0, min(n, chunkWords))
	var buf [4 * chunkWords]byte
	for len(perm) < n {
		words := min(n-len(perm), chunkWords)
		if _, err := io.ReadFull(r, buf[:4*words]); err != nil {
			return nil, fmt.Errorf("%w: truncated permutation: %v", ErrPlanFormat, err)
		}
		if crc != nil {
			crc.Write(buf[:4*words])
		}
		for i := 0; i < words; i++ {
			perm = append(perm, int32(binary.LittleEndian.Uint32(buf[4*i:])))
		}
	}
	return perm, nil
}

// Apply rebuilds a full executable Plan for matrix m from the saved
// permutations: the matrix is permuted and re-tiled (cheap, O(nnz)), but
// LSH and clustering are skipped. It fails with a wrapped ErrPlanFormat
// if m's row count does not match the saved plan or if either stored
// order is not a valid permutation of [0, rows) — a hand-constructed or
// tampered SavedPlan is rejected here instead of panicking later in
// InversePermutation.
func (sp *SavedPlan) Apply(m *sparse.CSR, cfg Config) (*Plan, error) {
	if m.Rows != sp.Rows {
		return nil, fmt.Errorf("%w: saved plan is for %d rows, matrix has %d",
			ErrPlanFormat, sp.Rows, m.Rows)
	}
	// A snapshot is only valid for the structural epoch it was taken at:
	// a live matrix that has mutated since the snapshot must treat the
	// file as a miss, not as a plan (the row count and even both
	// permutations can coincidentally still validate after a structural
	// delta). Compared under the 20-bit mask the file format stores.
	if want := cfg.Epoch & planFlagEpochMask; sp.Epoch != want {
		return nil, fmt.Errorf("%w: saved plan is for structural epoch %d, want %d",
			ErrPlanFormat, sp.Epoch, want)
	}
	if !sparse.IsPermutation(sp.RowPerm, sp.Rows) {
		return nil, fmt.Errorf("%w: RowPerm is not a permutation of [0,%d)", ErrPlanFormat, sp.Rows)
	}
	if !sparse.IsPermutation(sp.RestOrder, sp.Rows) {
		return nil, fmt.Errorf("%w: RestOrder is not a permutation of [0,%d)", ErrPlanFormat, sp.Rows)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	ecfg := cfg.withWorkers()
	reordered, err := sparse.PermuteRowsWorkers(m, sp.RowPerm, ecfg.Workers)
	if err != nil {
		return nil, err
	}
	tiled, err := buildTiled(reordered, ecfg)
	if err != nil {
		return nil, err
	}
	p := &Plan{
		Cfg:           cfg,
		RowPerm:       append([]int32(nil), sp.RowPerm...),
		InvRowPerm:    sparse.InversePermutation(sp.RowPerm),
		Reordered:     reordered,
		Tiled:         tiled,
		RestOrder:     append([]int32(nil), sp.RestOrder...),
		Round1Applied: sp.Round1Applied,
		Round2Applied: sp.Round2Applied,
	}
	p.DenseRatioAfter = tiled.DenseRatio()
	// A stored row-wise or merge choice replays; any other stored value
	// (a legacy file's 0, or a kernel no plan serves) re-runs the
	// autotuner on the rebuilt plan.
	p.Kernel = resolveKernel(p)
	if sp.Kernel == KernelRowWise || sp.Kernel == KernelMerge {
		p.Kernel = sp.Kernel
	}
	return p, nil
}
