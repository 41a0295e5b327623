package db

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"unsafe"
)

// Versioned binary snapshot of a columnar instance. The format is a
// header followed by flat little-endian arrays — the column arenas of
// columnar.go written out verbatim — every section 8-byte aligned, so a
// loader on a little-endian host aliases the arrays straight out of an
// mmap'ed file with unsafe.Slice: no decode pass, no per-fact
// allocation, and the page cache shares the data across processes.
//
//	[0]  magic   "CAVSNAP1"            [8]byte
//	[8]  format version                uint32 (= SnapshotFormatVersion)
//	[12] reserved                      uint32 (0)
//	[16] dataVersion                   uint64 (FNV-1a over the body)
//	[24] totalSize                     uint64 (whole file, incl. tail)
//	[32] nFacts, nRels, nStrings       3×uint64
//	[56] schemaLen                     uint64
//	[64] schema JSON                   schemaLen bytes, padded to 8
//	     dict offsets                  (nStrings+1)×uint64, cumulative
//	     dict blob                     offsets[nStrings] bytes, padded
//	     factRel                       nFacts×uint32, padded
//	     per relation, schema order:
//	       rowCount                    uint64
//	       per attribute, in order:
//	         INT    → ints             rowCount×int64
//	         FLOAT  → raw              rowCount×uint64
//	                  intRows bitmap   ⌈rowCount/64⌉×uint64
//	         STRING → codes            rowCount×uint32, padded
//	         nulls bitmap              ⌈rowCount/64⌉×uint64
//	     tail "CAVSEND1"               [8]byte
//
// Lifetime rules (see DESIGN.md §11): an instance returned by
// OpenSnapshot aliases the mapping until Snapshot.Close; it is frozen —
// Insert returns an error — and Close must not be called while any
// query over the instance is still running. LoadSnapshotBytes aliases
// the caller's buffer the same way. Cross-endian hosts (and unaligned
// buffers) fall back to a copying decode; the file bytes are identical
// everywhere.

// SnapshotFormatVersion is the current (and only) snapshot format.
const SnapshotFormatVersion uint32 = 1

var (
	snapMagic = [8]byte{'C', 'A', 'V', 'S', 'N', 'A', 'P', '1'}
	snapTail  = [8]byte{'C', 'A', 'V', 'S', 'E', 'N', 'D', '1'}
)

var (
	// ErrSnapshotMagic means the file is not a snapshot at all.
	ErrSnapshotMagic = errors.New("db: snapshot: bad magic (not a snapshot file)")
	// ErrSnapshotVersion means the format version is not understood.
	// The wrapping error carries the got/want numbers.
	ErrSnapshotVersion = errors.New("db: snapshot: unsupported format version")
	// ErrSnapshotTruncated means the file ends before its declared
	// sections do (or the tail marker is missing).
	ErrSnapshotTruncated = errors.New("db: snapshot: truncated or corrupt")
)

const snapHeaderSize = 64

// hostLittleEndian reports whether unsafe.Slice aliasing reads the
// serialized little-endian arrays correctly on this machine.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

func snapAlign(n int) int { return (n + 7) &^ 7 }

func snapWords(rows int) int { return (rows + 63) / 64 }

// snapshot schema JSON shape — stable, independent of the Go structs.
type snapRelJSON struct {
	Name  string         `json:"name"`
	Attrs []snapAttrJSON `json:"attrs"`
	Key   []int          `json:"key,omitempty"`
}

type snapAttrJSON struct {
	Name string `json:"name"`
	Kind uint8  `json:"kind"`
}

// snapWriter accumulates the body with 8-byte alignment.
type snapWriter struct {
	buf []byte
}

func (w *snapWriter) pad() {
	for len(w.buf)%8 != 0 {
		w.buf = append(w.buf, 0)
	}
}

func (w *snapWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *snapWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *snapWriter) u32s(vs []uint32) {
	for _, v := range vs {
		w.u32(v)
	}
	w.pad()
}

func (w *snapWriter) u64s(vs []uint64) {
	for _, v := range vs {
		w.u64(v)
	}
}

func (w *snapWriter) i64s(vs []int64) {
	for _, v := range vs {
		w.u64(uint64(v))
	}
}

// bitmapWords writes b padded (or clipped) to exactly n words.
func (w *snapWriter) bitmapWords(b bitset, n int) {
	for i := 0; i < n; i++ {
		if i < len(b) {
			w.u64(b[i])
		} else {
			w.u64(0)
		}
	}
}

// EncodeSnapshot serializes the instance in the snapshot format.
func EncodeSnapshot(in *Instance) ([]byte, error) {
	var rels []snapRelJSON
	for _, rs := range in.schema.Relations() {
		sr := snapRelJSON{Name: rs.Name, Key: rs.Key}
		for _, a := range rs.Attrs {
			if a.Kind != KindInt && a.Kind != KindFloat && a.Kind != KindString {
				return nil, fmt.Errorf("db: snapshot: relation %s: unsupported attribute kind %s", rs.Name, a.Kind)
			}
			sr.Attrs = append(sr.Attrs, snapAttrJSON{Name: a.Name, Kind: uint8(a.Kind)})
		}
		rels = append(rels, sr)
	}
	schemaJSON, err := json.Marshal(rels)
	if err != nil {
		return nil, err
	}

	var w snapWriter
	// Body first; the header (with the body fingerprint) is prepended
	// after.
	w.buf = append(w.buf, schemaJSON...)
	w.pad()
	// Dictionary: cumulative offsets then the concatenated bytes.
	off := uint64(0)
	offsets := make([]uint64, 0, in.dict.Len()+1)
	for _, s := range in.dict.strs {
		offsets = append(offsets, off)
		off += uint64(len(s))
	}
	offsets = append(offsets, off)
	w.u64s(offsets)
	for _, s := range in.dict.strs {
		w.buf = append(w.buf, s...)
	}
	w.pad()
	w.u32s(in.factRel)
	for _, rs := range in.schema.Relations() {
		rc := in.rels[rs.ID()]
		rows := len(rc.ids)
		nW := snapWords(rows)
		w.u64(uint64(rows))
		for i := range rc.cols {
			c := &rc.cols[i]
			switch c.kind {
			case KindInt:
				w.i64s(c.ints)
			case KindFloat:
				w.u64s(c.raw)
				w.bitmapWords(c.intRows, nW)
			case KindString:
				w.u32s(c.codes)
			}
			w.bitmapWords(c.nulls, nW)
		}
	}
	body := w.buf

	dataVersion := HashSeed
	for _, b := range body {
		dataVersion = hashByte(dataVersion, b)
	}

	out := make([]byte, 0, snapHeaderSize+len(body)+8)
	out = append(out, snapMagic[:]...)
	out = binary.LittleEndian.AppendUint32(out, SnapshotFormatVersion)
	out = binary.LittleEndian.AppendUint32(out, 0)
	out = binary.LittleEndian.AppendUint64(out, dataVersion)
	out = binary.LittleEndian.AppendUint64(out, uint64(snapHeaderSize+len(body)+8))
	out = binary.LittleEndian.AppendUint64(out, uint64(in.nFacts))
	out = binary.LittleEndian.AppendUint64(out, uint64(in.schema.NumRelations()))
	out = binary.LittleEndian.AppendUint64(out, uint64(in.dict.Len()))
	out = binary.LittleEndian.AppendUint64(out, uint64(len(schemaJSON)))
	out = append(out, body...)
	out = append(out, snapTail[:]...)
	return out, nil
}

// SaveSnapshot writes the instance's snapshot to path atomically
// (write to a temp file in the same directory, then rename).
func SaveSnapshot(in *Instance, path string) error {
	data, err := EncodeSnapshot(in)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// snapReader is a bounds-checked cursor over the snapshot bytes. Every
// take* returns ErrSnapshotTruncated via r.err when the declared
// sections run past the buffer.
type snapReader struct {
	b   []byte
	off int
	err error
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.off+n > len(r.b) || r.off+n < r.off {
		r.err = ErrSnapshotTruncated
		return nil
	}
	s := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return s
}

func (r *snapReader) pad() {
	if rem := r.off % 8; rem != 0 {
		r.take(8 - rem)
	}
}

func (r *snapReader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

// The slice decoders alias the buffer (len==cap, so appends copy) on
// little-endian hosts and copy-convert elsewhere.

func (r *snapReader) u64s(n int) []uint64 {
	s := r.take(n * 8)
	if s == nil {
		return nil
	}
	if n == 0 {
		return []uint64{}
	}
	if hostLittleEndian {
		return unsafe.Slice((*uint64)(unsafe.Pointer(&s[0])), n)
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(s[i*8:])
	}
	return out
}

func (r *snapReader) i64s(n int) []int64 {
	u := r.u64s(n)
	if len(u) == 0 {
		if u == nil {
			return nil
		}
		return []int64{}
	}
	return unsafe.Slice((*int64)(unsafe.Pointer(&u[0])), len(u))
}

func (r *snapReader) u32s(n int) []uint32 {
	s := r.take(n * 4)
	r.pad()
	if s == nil {
		return nil
	}
	if n == 0 {
		return []uint32{}
	}
	if hostLittleEndian {
		return unsafe.Slice((*uint32)(unsafe.Pointer(&s[0])), n)
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(s[i*4:])
	}
	return out
}

// LoadSnapshotBytes decodes a snapshot, aliasing the column arenas into
// b (zero copy on little-endian hosts). The returned instance is frozen
// (Insert refuses) and remains valid only as long as b does — with an
// mmap'ed b, until the mapping is unmapped. Its DataVersion is the
// header fingerprint.
func LoadSnapshotBytes(b []byte) (*Instance, error) {
	if len(b) < snapHeaderSize+8 {
		if len(b) >= 8 && string(b[:8]) != string(snapMagic[:]) {
			return nil, ErrSnapshotMagic
		}
		return nil, ErrSnapshotTruncated
	}
	if string(b[:8]) != string(snapMagic[:]) {
		return nil, ErrSnapshotMagic
	}
	version := binary.LittleEndian.Uint32(b[8:])
	if version != SnapshotFormatVersion {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrSnapshotVersion, version, SnapshotFormatVersion)
	}
	dataVersion := binary.LittleEndian.Uint64(b[16:])
	totalSize := binary.LittleEndian.Uint64(b[24:])
	nFacts := binary.LittleEndian.Uint64(b[32:])
	nRels := binary.LittleEndian.Uint64(b[40:])
	nStrings := binary.LittleEndian.Uint64(b[48:])
	schemaLen := binary.LittleEndian.Uint64(b[56:])
	if totalSize != uint64(len(b)) || string(b[len(b)-8:]) != string(snapTail[:]) {
		return nil, ErrSnapshotTruncated
	}
	const sane = 1 << 40
	if nFacts > sane || nRels > sane || nStrings > sane || schemaLen > sane {
		return nil, ErrSnapshotTruncated
	}

	// Guarantee the 8-byte alignment unsafe.Slice needs: mmap bases are
	// page-aligned, but an arbitrary caller buffer may not be.
	if uintptr(unsafe.Pointer(&b[0]))%8 != 0 {
		cp := make([]uint64, (len(b)+7)/8)
		copy(unsafe.Slice((*byte)(unsafe.Pointer(&cp[0])), len(b)), b)
		b = unsafe.Slice((*byte)(unsafe.Pointer(&cp[0])), len(b))
	}

	r := &snapReader{b: b[:len(b)-8], off: snapHeaderSize}
	schemaJSON := r.take(int(schemaLen))
	r.pad()
	if r.err != nil {
		return nil, r.err
	}
	var rels []snapRelJSON
	if err := json.Unmarshal(schemaJSON, &rels); err != nil {
		return nil, fmt.Errorf("db: snapshot: schema: %w", err)
	}
	if uint64(len(rels)) != nRels {
		return nil, ErrSnapshotTruncated
	}
	schema := NewSchema()
	for _, sr := range rels {
		rs := &RelationSchema{Name: sr.Name, Key: sr.Key}
		for _, a := range sr.Attrs {
			rs.Attrs = append(rs.Attrs, Attribute{Name: a.Name, Kind: Kind(a.Kind)})
		}
		if err := schema.AddRelation(rs); err != nil {
			return nil, fmt.Errorf("db: snapshot: schema: %w", err)
		}
	}

	in := NewInstance(schema)
	in.frozen = true
	in.dataVersion = dataVersion

	// Dictionary: the string headers point into the blob (zero copy of
	// the bytes themselves).
	offsets := r.u64s(int(nStrings) + 1)
	if r.err != nil {
		return nil, r.err
	}
	blobLen := int(offsets[nStrings])
	blob := r.take(blobLen)
	r.pad()
	if r.err != nil {
		return nil, r.err
	}
	strs := make([]string, nStrings)
	for i := range strs {
		lo, hi := offsets[i], offsets[i+1]
		if lo > hi || hi > uint64(blobLen) {
			return nil, ErrSnapshotTruncated
		}
		if lo == hi {
			continue // empty string: keep the zero value
		}
		strs[i] = unsafe.String(&blob[lo], int(hi-lo))
	}
	in.dict.strs = strs
	in.dict.rebuildTable()

	in.factRel = r.u32s(int(nFacts))
	if r.err != nil {
		return nil, r.err
	}
	in.nFacts = int(nFacts)

	for _, rs := range schema.Relations() {
		rc := in.rels[rs.ID()]
		rows := int(r.u64())
		if r.err != nil {
			return nil, r.err
		}
		nW := snapWords(rows)
		rc.ids = make([]FactID, 0, rows)
		for i := range rc.cols {
			c := &rc.cols[i]
			switch c.kind {
			case KindInt:
				c.ints = r.i64s(rows)
			case KindFloat:
				c.raw = r.u64s(rows)
				c.intRows = bitset(r.u64s(nW))
			case KindString:
				c.codes = r.u32s(rows)
			default:
				return nil, fmt.Errorf("db: snapshot: relation %s: unsupported column kind %s", rs.Name, c.kind)
			}
			c.nulls = bitset(r.u64s(nW))
			if r.err != nil {
				return nil, r.err
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, ErrSnapshotTruncated
	}

	// Rebuild the per-fact bookkeeping (factRow, per-relation ID lists)
	// in one pass over factRel; validate codes and RelIDs on the way so
	// a corrupt body cannot index out of bounds later.
	in.factRow = make([]uint32, nFacts)
	for id, rid := range in.factRel {
		if uint64(rid) >= nRels {
			return nil, ErrSnapshotTruncated
		}
		rc := in.rels[rid]
		in.factRow[id] = uint32(len(rc.ids))
		rc.ids = append(rc.ids, FactID(id))
	}
	for _, rs := range schema.Relations() {
		rc := in.rels[rs.ID()]
		in.byRel[rs.ID()] = rc.ids
		for i := range rc.cols {
			c := &rc.cols[i]
			if len(c.ints) != 0 && len(c.ints) != len(rc.ids) ||
				len(c.raw) != 0 && len(c.raw) != len(rc.ids) ||
				len(c.codes) != 0 && len(c.codes) != len(rc.ids) {
				return nil, ErrSnapshotTruncated
			}
			for _, code := range c.codes {
				if uint64(code) >= nStrings {
					return nil, ErrSnapshotTruncated
				}
			}
		}
	}
	return in, nil
}

// Snapshot is an instance backed by an mmap'ed snapshot file. Close
// unmaps the file; the instance (and anything still referencing its
// tuples or strings) must not be used afterwards.
type Snapshot struct {
	in   *Instance
	data []byte
	path string
}

// OpenSnapshot maps the snapshot file at path and decodes it zero-copy.
func OpenSnapshot(path string) (*Snapshot, error) {
	data, err := mmapFile(path)
	if err != nil {
		return nil, err
	}
	in, err := LoadSnapshotBytes(data)
	if err != nil {
		munmapFile(data)
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &Snapshot{in: in, data: data, path: path}, nil
}

// Instance returns the snapshot-backed (frozen) instance.
func (s *Snapshot) Instance() *Instance { return s.in }

// DataVersion returns the snapshot's content fingerprint.
func (s *Snapshot) DataVersion() uint64 { return s.in.dataVersion }

// Path returns the file the snapshot was opened from.
func (s *Snapshot) Path() string { return s.path }

// SizeBytes returns the mapped (or read) file size.
func (s *Snapshot) SizeBytes() int { return len(s.data) }

// Close releases the mapping. The instance must no longer be in use.
func (s *Snapshot) Close() error {
	if s.data == nil {
		return nil
	}
	data := s.data
	s.data = nil
	return munmapFile(data)
}
