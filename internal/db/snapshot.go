package db

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
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
//	     dict table length             uint64 (power of two ≥ 2·(nStrings+1))
//	     dict table                    length×uint32, padded
//	     factRel                       nFacts×uint32, padded
//	     per relation, schema order:
//	       rowCount                    uint64
//	       per attribute, in order:
//	         INT    → ints             rowCount×int64
//	         FLOAT  → raw              rowCount×uint64
//	                  intRows bitmap   ⌈rowCount/64⌉×uint64
//	         STRING → codes            rowCount×uint32, padded
//	         nulls bitmap              ⌈rowCount/64⌉×uint64
//	     key index (keyindex.go), violating groups only:
//	       nGroups                     uint64
//	       offsets                     (nGroups+1)×uint32, padded
//	       members                     offsets[nGroups]×uint64
//	     tail "CAVSEND1"               [8]byte
//
// The dictionary sections are the Dict's own arrays (dict.go): the
// byte pool, its offsets and the string → code table laid out by the
// fixed dictHash, so the loader aliases all three and rebuilds
// nothing per string. It checks only the table's shape (a power-of-two
// length of at least 2·(nStrings+1)); Dict.slot bounds-checks every code
// it reads and stops after one sweep, and Dict.String clamps offsets to
// the pool, so a corrupt section makes a lookup miss or a string wrong,
// never a panic or a hang. Content corruption is the data version's
// concern, checked only by the opt-in VerifySnapshot.
//
// The key index is the instance's key-equal-group partition in CSR
// form, so a reopened snapshot adopts it instead of re-partitioning
// every fact. The loader aliases offsets and members and derives each
// fact's group in one scatter, validating the section on the way:
// offsets rise from 0 to len(members) in steps of at least 2, members
// ascend within a group and lie in no other group, groups are ordered
// by first member, and every member is key-equal to its group's first
// member in the same keyed relation (EqualRowsOn, violating members
// only). That a fact outside every group has a unique key is trusted,
// as the data version is; VerifySnapshot re-partitions and compares.
//
// Lifetime rules (see DESIGN.md §11): an instance returned by
// OpenSnapshot aliases the mapping until Snapshot.Close; it is frozen —
// Insert returns an error — and Close must not be called while any
// query over the instance is still running. LoadSnapshotBytes aliases
// the caller's buffer the same way. Cross-endian hosts (and unaligned
// buffers) fall back to a copying decode; the file bytes are identical
// everywhere.

// SnapshotFormatVersion is the current (and only) snapshot format.
// Version 2 added the key index section and version 3 the dictionary
// table; older files are refused with ErrSnapshotVersion.
const SnapshotFormatVersion uint32 = 3

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

	// The header's room first, then the body into a buffer sized for the
	// whole file (so it never regrows), then the header with the body's
	// fingerprint, in place.
	w := snapWriter{buf: make([]byte, snapHeaderSize, snapshotSize(in, len(schemaJSON)))}
	w.buf = append(w.buf, schemaJSON...)
	w.pad()
	// Dictionary: cumulative offsets, the concatenated bytes, the table.
	d := in.dict
	w.u64s(d.offs)
	w.buf = append(w.buf, d.bytes...)
	w.pad()
	w.u64(uint64(len(d.table)))
	w.u32s(d.table)
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
	x := in.KeyEqualGroups()
	w.u64(uint64(x.NumGroups()))
	w.u32s(x.offsets)
	for _, f := range x.members {
		w.u64(uint64(f))
	}
	dataVersion := HashSeed
	for _, b := range w.buf[snapHeaderSize:] {
		dataVersion = hashByte(dataVersion, b)
	}
	out := append(w.buf, snapTail[:]...)
	hdr := out[:0]
	hdr = append(hdr, snapMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, SnapshotFormatVersion)
	hdr = binary.LittleEndian.AppendUint32(hdr, 0)
	hdr = binary.LittleEndian.AppendUint64(hdr, dataVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(out)))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(in.nFacts))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(in.schema.NumRelations()))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(in.dict.Len()))
	binary.LittleEndian.AppendUint64(hdr, uint64(len(schemaJSON)))
	return out, nil
}

// snapshotSize is the encoded size of the instance, the buffer
// EncodeSnapshot fills (section by section, as the layout comment).
func snapshotSize(in *Instance, schemaLen int) int {
	d := in.dict
	n := snapHeaderSize + snapAlign(schemaLen) + 8*len(d.offs) + snapAlign(len(d.bytes)) +
		8 + snapAlign(4*len(d.table)) + snapAlign(4*in.nFacts)
	for _, rc := range in.rels {
		rows := len(rc.ids)
		n += 8
		for i := range rc.cols {
			n += 8 * snapWords(rows) // nulls
			switch rc.cols[i].kind {
			case KindString:
				n += snapAlign(4 * rows)
			case KindFloat:
				n += 8*rows + 8*snapWords(rows)
			default:
				n += 8 * rows
			}
		}
	}
	x := in.KeyEqualGroups()
	return n + 8 + snapAlign(4*len(x.offsets)) + 8*len(x.members) + len(snapTail)
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

// factIDs reads n uint64 fact IDs, aliased as []FactID where FactID is
// 64 bits wide. An ID past the int range reads as negative either way.
func (r *snapReader) factIDs(n int) []FactID {
	u := r.u64s(n)
	if len(u) == 0 {
		return nil
	}
	if unsafe.Sizeof(FactID(0)) == 8 {
		return unsafe.Slice((*FactID)(unsafe.Pointer(&u[0])), len(u))
	}
	out := make([]FactID, len(u))
	for i, v := range u {
		out[i] = -1
		if v <= math.MaxInt32 {
			out[i] = FactID(v)
		}
	}
	return out
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

	// Dictionary: the pool, its offsets and its table, all aliased.
	offsets := r.u64s(int(nStrings) + 1)
	if r.err != nil {
		return nil, r.err
	}
	blob := r.take(int(offsets[nStrings]))
	r.pad()
	tableLen := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if tableLen > uint64(len(b)) || tableLen&(tableLen-1) != 0 || tableLen < 2*(nStrings+1) {
		return nil, errSection("dictionary", "table of %d slots for %d strings", tableLen, nStrings)
	}
	table := r.u32s(int(tableLen))
	if r.err != nil {
		return nil, r.err
	}
	in.dict = &Dict{offs: offsets, bytes: blob, table: table, mapped: true}

	in.factRel = r.u32s(int(nFacts))
	if r.err != nil {
		return nil, r.err
	}
	in.nFacts = int(nFacts)

	rows := make([]int, len(rels))
	for _, rs := range schema.Relations() {
		rc := in.rels[rs.ID()]
		n := r.u64()
		if r.err != nil {
			return nil, r.err
		}
		if n > nFacts {
			return nil, ErrSnapshotTruncated
		}
		rows[rs.ID()] = int(n)
		nW := snapWords(int(n))
		for i := range rc.cols {
			c := &rc.cols[i]
			switch c.kind {
			case KindInt:
				c.ints = r.i64s(int(n))
			case KindFloat:
				c.raw = r.u64s(int(n))
				c.intRows = bitset(r.u64s(nW))
			case KindString:
				c.codes = r.u32s(int(n))
			default:
				return nil, fmt.Errorf("db: snapshot: relation %s: unsupported column kind %s", rs.Name, c.kind)
			}
			c.nulls = bitset(r.u64s(nW))
			if r.err != nil {
				return nil, r.err
			}
		}
	}
	nGroups := r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if nGroups > nFacts/2 {
		return nil, errSection("key index", "%d groups over %d facts", nGroups, nFacts)
	}
	groupOffsets := r.u32s(int(nGroups) + 1)
	if r.err != nil {
		return nil, r.err
	}
	members := r.factIDs(int(groupOffsets[nGroups]))
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
	for _, rs := range schema.Relations() {
		in.rels[rs.ID()].ids = make([]FactID, 0, rows[rs.ID()])
	}
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
		if len(rc.ids) != rows[rs.ID()] {
			return nil, ErrSnapshotTruncated
		}
		in.byRel[rs.ID()] = rc.ids
		for i := range rc.cols {
			for _, code := range rc.cols[i].codes {
				if uint64(code) >= nStrings {
					return nil, ErrSnapshotTruncated
				}
			}
		}
	}
	x, err := in.adoptKeyIndex(groupOffsets, members)
	if err != nil {
		return nil, err
	}
	in.keyIndex = x
	return in, nil
}

// errSection reports a section that fails validation.
func errSection(section, format string, args ...any) error {
	return fmt.Errorf("%w: %s: %s", ErrSnapshotTruncated, section, fmt.Sprintf(format, args...))
}

// errKeyIndex reports a key index section that fails validation.
func errKeyIndex(format string, args ...any) error { return errSection("key index", format, args...) }

// adoptKeyIndex validates a stored key index section (see the layout
// comment) against the loaded facts and derives groupOf from it in one
// scatter; offsets and members are kept as they are.
func (in *Instance) adoptKeyIndex(offsets []uint32, members []FactID) (*KeyIndex, error) {
	if offsets[0] != 0 || int(offsets[len(offsets)-1]) != len(members) {
		return nil, errKeyIndex("offsets run from %d to %d over %d members", offsets[0], offsets[len(offsets)-1], len(members))
	}
	if len(offsets) == 1 {
		return &KeyIndex{facts: in.nFacts, offsets: offsets}, nil
	}
	groupOf := make([]int32, in.nFacts)
	for i := range groupOf {
		groupOf[i] = -1
	}
	prevFirst := FactID(-1)
	for g := 0; g+1 < len(offsets); g++ {
		lo, hi := offsets[g], offsets[g+1]
		if hi < lo || hi-lo < 2 || int(hi) > len(members) {
			return nil, errKeyIndex("group %d spans offsets %d..%d", g, lo, hi)
		}
		group := members[lo:hi]
		first := group[0]
		if first <= prevFirst {
			return nil, errKeyIndex("group %d is out of first-member order", g)
		}
		prevFirst = first
		if int(first) >= in.nFacts {
			return nil, errKeyIndex("group %d: fact %d out of range", g, first)
		}
		rel := in.factRel[first]
		key := in.schema.RelationByID(RelID(rel)).Key
		if len(key) == 0 {
			return nil, errKeyIndex("group %d lies in a relation without a key", g)
		}
		for i, f := range group {
			switch {
			case f < 0 || int(f) >= in.nFacts:
				return nil, errKeyIndex("group %d: fact %d out of range", g, f)
			case i > 0 && f <= group[i-1]:
				return nil, errKeyIndex("group %d: members not strictly ascending", g)
			case groupOf[f] >= 0:
				return nil, errKeyIndex("fact %d is in groups %d and %d", f, groupOf[f], g)
			case in.factRel[f] != rel || !in.EqualRowsOn(first, f, key):
				return nil, errKeyIndex("group %d: fact %d is not key-equal to fact %d", g, f, first)
			}
			groupOf[f] = int32(g)
		}
	}
	return &KeyIndex{facts: in.nFacts, groupOf: groupOf, offsets: offsets, members: members}, nil
}

// VerifySnapshot loads b and checks what the loader trusts: it
// re-hashes the body against the header's data version, re-partitions
// every keyed relation and compares the result with the stored key
// index, and re-inserts the dictionary's strings into a fresh table of
// the stored length and compares it slot for slot (which also finds a
// string stored twice). It costs a cold build of all three, so it is
// opt-in: a loader that adopts the stored sections never calls it. A
// failed check wraps ErrSnapshotTruncated.
func VerifySnapshot(b []byte) error {
	in, err := LoadSnapshotBytes(b)
	if err != nil {
		return err
	}
	h := HashSeed
	for _, c := range b[snapHeaderSize : len(b)-8] {
		h = hashByte(h, c)
	}
	if h != in.dataVersion {
		return errSection("body", "hashes to %x, header says %x", h, in.dataVersion)
	}
	stored, fresh := in.keyIndex, in.buildKeyIndex(in.Partition)
	if !slices.Equal(stored.offsets, fresh.offsets) || !slices.Equal(stored.members, fresh.members) {
		return errKeyIndex("stored %d groups over %d facts, the partition has %d over %d",
			stored.NumGroups(), len(stored.members), fresh.NumGroups(), len(fresh.members))
	}
	d := in.dict
	if d.offs[0] != 0 || !slices.IsSorted(d.offs) {
		return errSection("dictionary", "offsets do not cut the pool")
	}
	rebuilt := &Dict{offs: d.offs, bytes: d.bytes, table: make([]uint32, len(d.table))}
	for c := 0; c < d.Len(); c++ {
		i, dup := rebuilt.slot(d.String(uint32(c)))
		if dup {
			return errSection("dictionary", "strings %d and %d are equal", rebuilt.table[i]-1, c)
		}
		rebuilt.table[i] = uint32(c) + 1
	}
	if !slices.Equal(rebuilt.table, d.table) {
		return errSection("dictionary", "table differs from the one its strings build")
	}
	return nil
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
