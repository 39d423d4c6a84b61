// Package codec serializes releases — schema, hierarchies, noisy matrix
// and privacy accounting — to a compact, versioned binary format, so a
// release published once can be stored, shipped, and queried elsewhere
// without republishing (and without spending more ε). This is the
// serialization of the paper's publish-once model (§I, §III: the budget
// is spent when M* is released; everything after is post-processing),
// and the byte format behind the single durability chokepoint
// store.EncodeRelease/DecodeRelease (docs/ARCHITECTURE.md).
//
// Format (all integers little-endian; varint = unsigned LEB128 as in
// encoding/binary):
//
//	magic   "PRVL"            4 bytes
//	version u16               1 or 2
//	meta    mechanism string, epsilon/rho/lambda/bound float64
//	schema  attr count varint, then per attribute:
//	          name string, kind u8, size varint,
//	          nominal only: hierarchy in preorder
//	            (label string, child count varint, children...)
//	matrix  dim count varint, dims varints, entries float64 LE
//
// Version 2 (the durable format carrying the precomputed summed-area
// table, so reloading a release costs zero prefix-sum work — the
// paper's §V constant-time query evaluator persisted alongside the
// data it answers from) keeps the header/meta/schema sections and
// dims bit-identical, then aligns and extends the tail:
//
//	pad     u8 length + zero bytes   (matrix entries 8-byte aligned)
//	matrix  entries float64 LE       (same values as version 1)
//	pad     u8 length + zero bytes   (table 8-byte aligned)
//	table   entries float64 LE       (summed-area table over the matrix)
//	total   float64 LE               (sum of raw matrix entries)
//	crc     u32 LE                   (CRC-32C of table + total bytes)
//	end     "PVL2"                   4 bytes
//
// The 8-byte alignment of both float64 sections is what lets a reader
// memory-map the file and serve queries straight from the mapped table;
// the checksum is what keeps a torn or bit-flipped table from silently
// answering garbage — a failed check surfaces as ErrTable with the
// (still intact) matrix payload, so callers rebuild the table instead
// of trusting it. Strings are varint length + UTF-8 bytes. The format
// is self-describing enough for forward-compatible readers to reject
// unknown versions cleanly, and version-1 files remain fully readable
// forever (golden artifacts pin this in testdata/).
//
// There is one decoder, DecodeMapped, over a byte slice: mapped spill
// files hand it their pages, and stream readers (store.DecodeRelease)
// first read the stream into an 8-byte-aligned buffer
// (mmapfile.ReadAligned). DecodeHeader runs only its head, for store
// recovery, which registers a spill file without reading its float64
// sections. Because the whole input is in hand, every length the header
// declares is checked against the bytes actually present before it is
// allocated, so decode memory is bounded by the input's length — these
// bytes arrive from disk and from peers.
package codec

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"slices"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/hierarchy"
	"repro/internal/matrix"
)

const (
	magic    = "PRVL"
	version1 = 1
	version2 = 2
	// endMagic terminates a version-2 stream; its absence after the
	// checksum marks a truncated tail.
	endMagic = "PVL2"
	// maxStringLen bounds decoded strings to keep corrupt inputs from
	// allocating unbounded memory.
	maxStringLen = 1 << 20
)

// crcTable is the CRC-32C (Castagnoli) polynomial — hardware-accelerated
// on amd64/arm64, so checksumming the table costs far less than the
// prefix-sum rebuild it replaces.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrTable tags a version-2 decode whose summed-area table section is
// unreadable — checksum mismatch, truncated tail, or missing end magic —
// while the payload proper (meta, schema, matrix) decoded fine.
// DecodeMapped returns the intact payload WITH an error wrapping
// ErrTable in that case: callers must not serve the table, but they can
// (and the store does) rebuild it from the matrix instead of failing
// the whole release. Test with errors.Is.
var ErrTable = errors.New("codec: summed-area table unreadable")

// hostLittleEndian reports whether this machine's float64 layout matches
// the wire format, i.e. whether a mapped table can be served zero-copy
// and a float64 section written as its own bytes.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Meta is the privacy accounting carried alongside a release.
type Meta struct {
	Mechanism string
	Epsilon   float64
	Rho       float64
	Lambda    float64
	Bound     float64
}

// Payload is everything a stored release contains.
type Payload struct {
	Meta   Meta
	Schema *dataset.Schema
	Noisy  *matrix.Matrix
	// Table, when non-nil, is the summed-area (prefix-sum) table over
	// Noisy — the evaluator's precomputed state, persisted by format
	// version 2 so a reload performs zero prefix-sum work. Its dims
	// always equal Noisy's. Total is the sum of Noisy's entries (the
	// evaluator's cached total); it is meaningful only when Table is
	// set.
	Table *matrix.Matrix
	Total float64
}

// countWriter counts bytes written through it — the encoder needs
// absolute offsets to place the alignment padding of format version 2.
type countWriter struct {
	w *bufio.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (c *countWriter) WriteByte(b byte) error {
	err := c.w.WriteByte(b)
	if err == nil {
		c.n++
	}
	return err
}

func (c *countWriter) WriteString(s string) (int, error) {
	n, err := c.w.WriteString(s)
	c.n += int64(n)
	return n, err
}

// Encode writes the payload to w: format version 2 when p.Table is set
// (the durable form every spill file and /export response uses), the
// table-less version 1 otherwise. Encoding is deterministic — equal
// payloads produce bit-identical bytes.
func Encode(w io.Writer, p *Payload) error {
	if p == nil || p.Schema == nil || p.Noisy == nil {
		return fmt.Errorf("codec: nil payload components")
	}
	ver := uint16(version1)
	if p.Table != nil {
		if !slices.Equal(p.Table.Dims(), p.Noisy.Dims()) {
			return fmt.Errorf("codec: table dims %v do not match matrix dims %v", p.Table.Dims(), p.Noisy.Dims())
		}
		ver = version2
	}
	bw := bufio.NewWriter(w)
	cw := &countWriter{w: bw}
	if _, err := cw.WriteString(magic); err != nil {
		return err
	}
	if err := binary.Write(cw, binary.LittleEndian, ver); err != nil {
		return err
	}
	if err := writeString(cw, p.Meta.Mechanism); err != nil {
		return err
	}
	for _, f := range []float64{p.Meta.Epsilon, p.Meta.Rho, p.Meta.Lambda, p.Meta.Bound} {
		if err := binary.Write(cw, binary.LittleEndian, f); err != nil {
			return err
		}
	}
	if err := encodeSchema(cw, p.Schema); err != nil {
		return err
	}
	dims := p.Noisy.Dims()
	writeUvarint(cw, uint64(len(dims)))
	for _, d := range dims {
		writeUvarint(cw, uint64(d))
	}
	if ver == version2 {
		if err := writePad(cw); err != nil {
			return err
		}
	}
	if err := writeFloats(cw, p.Noisy.Data(), nil); err != nil {
		return err
	}
	if ver == version2 {
		if err := writePad(cw); err != nil {
			return err
		}
		h := crc32.New(crcTable)
		if err := writeFloats(cw, p.Table.Data(), h); err != nil {
			return err
		}
		var tot [8]byte
		binary.LittleEndian.PutUint64(tot[:], math.Float64bits(p.Total))
		if _, err := cw.Write(tot[:]); err != nil {
			return err
		}
		h.Write(tot[:])
		if err := binary.Write(cw, binary.LittleEndian, h.Sum32()); err != nil {
			return err
		}
		if _, err := cw.WriteString(endMagic); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// MapInfo reports which sections of a DecodeMapped payload are zero-copy
// views over the caller's buffer (as opposed to heap copies) — the
// store's residency accounting distinguishes the two on /stats.
type MapInfo struct {
	// Noisy and Table report that the respective matrix's backing slice
	// aliases the input buffer.
	Noisy bool
	Table bool
}

// DecodeMapped decodes a payload (format version 1 or 2) from an
// in-memory buffer — a memory-mapped spill file, or a stream read into
// an aligned heap buffer (store.DecodeRelease) — and is the codec's one
// decoder. It wraps the version-2 float64 sections zero-copy where the
// host allows it (little-endian, 8-byte-aligned buffer): the returned
// matrices then read straight from data, and reloading a release costs
// no decode and no prefix-sum work. pin is retained by every zero-copy
// matrix (matrix.Wrap), so a finalizer-managed mapping stays alive as
// long as any view of it; callers must not mutate data afterwards.
// Sections that cannot be wrapped (version-1 input, misalignment,
// byte-swapped host) are copied instead — same values, heap-backed.
//
// Memory scales with the input, never with the header: every float64
// section is bounds-checked against the bytes actually present before
// anything is allocated for it, so a short input that declares a huge
// matrix fails cheaply. A version-2 buffer whose table section is
// corrupt returns the intact payload plus an error wrapping ErrTable.
func DecodeMapped(data []byte, pin any) (*Payload, MapInfo, error) {
	// pin must stay reachable for as long as data is read: a
	// finalizer-managed mapping (mmapfile.File) whose last reference is
	// this call's argument would otherwise be collectable — and its
	// pages unmapped — mid-decode, since the collector does not trace
	// data's off-heap backing. After return, reachability transfers to
	// the zero-copy matrices (matrix.Wrap holds pin); copy-decoded
	// sections no longer need the mapping at all.
	defer runtime.KeepAlive(pin)
	r := bytes.NewReader(data)
	var info MapInfo
	p, ver, dims, n, err := decodeHead(r)
	if err != nil {
		return nil, info, err
	}
	// Version 1 has no alignment pad, so its matrix is always copied.
	noisyVals, _, noisyMapped, err := takeFloats(data, r, n, ver == version2)
	if err != nil {
		return nil, info, fmt.Errorf("codec: matrix entries: %w", err)
	}
	if p.Noisy, err = matrix.Wrap(noisyVals, pinIf(noisyMapped, pin), dims...); err != nil {
		return nil, info, err
	}
	info.Noisy = noisyMapped
	if ver == version1 {
		return p, info, nil
	}
	if err := mapTable(data, r, p, dims, n, pin, &info); err != nil {
		return p, info, fmt.Errorf("codec: %v: %w", err, ErrTable)
	}
	return p, info, nil
}

// DecodeHeader decodes the head of a payload (format version 1 or 2):
// its meta and its schema with the matrix dims. It checks that the
// matrix section's bytes are present without reading them, and leaves
// the version-2 table section, checksum included, to DecodeMapped. It
// therefore succeeds exactly when DecodeMapped returns a payload
// (possibly with ErrTable), at the cost of the header alone, and keeps
// no reference to data.
func DecodeHeader(data []byte) (Meta, *dataset.Schema, error) {
	p, _, _, _, err := decodeHead(bytes.NewReader(data))
	if err != nil {
		return Meta{}, nil, err
	}
	return p.Meta, p.Schema, nil
}

// mapTable decodes the version-2 table section of a mapped buffer into
// p, verifying the checksum against the raw bytes. Any failure leaves p
// without a table (the caller wraps the error in ErrTable).
func mapTable(data []byte, r *bytes.Reader, p *Payload, dims []int, n int, pin any, info *MapInfo) error {
	if err := skipPad(r); err != nil {
		return fmt.Errorf("table padding: %v", err)
	}
	tableVals, raw, tableMapped, err := takeFloats(data, r, n, true)
	if err != nil {
		return fmt.Errorf("table entries: %v", err)
	}
	totOff := len(data) - r.Len()
	var total float64
	if err := binary.Read(r, binary.LittleEndian, &total); err != nil {
		return fmt.Errorf("table total: %v", err)
	}
	var crc uint32
	if err := binary.Read(r, binary.LittleEndian, &crc); err != nil {
		return fmt.Errorf("table checksum: %v", err)
	}
	got := crc32.Update(crc32.Checksum(raw, crcTable), crcTable, data[totOff:totOff+8])
	if got != crc {
		return fmt.Errorf("table checksum mismatch: file says %08x, bytes hash to %08x", crc, got)
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return fmt.Errorf("end magic: %v", err)
	}
	if string(tail[:]) != endMagic {
		return fmt.Errorf("bad end magic %q", tail)
	}
	table, err := matrix.Wrap(tableVals, pinIf(tableMapped, pin), dims...)
	if err != nil {
		return err
	}
	p.Table, p.Total = table, total
	info.Table = tableMapped
	return nil
}

// takeFloats consumes n little-endian float64s at r's position in data,
// bounds-checked against the bytes left before anything is allocated.
// With zeroCopy on a little-endian host and an 8-byte-aligned section
// the values alias data (mapped=true); otherwise they are a heap copy.
// raw is the section's bytes, for checksumming.
func takeFloats(data []byte, r *bytes.Reader, n int, zeroCopy bool) (vals []float64, raw []byte, mapped bool, err error) {
	if n > r.Len()/8 {
		return nil, nil, false, io.ErrUnexpectedEOF
	}
	off := len(data) - r.Len()
	end := off + n*8
	raw = data[off:end:end]
	if _, err := r.Seek(int64(n)*8, io.SeekCurrent); err != nil {
		return nil, nil, false, err
	}
	if zeroCopy && hostLittleEndian && uintptr(unsafe.Pointer(&raw[0]))%8 == 0 {
		return unsafe.Slice((*float64)(unsafe.Pointer(&raw[0])), n), raw, true, nil
	}
	vals = make([]float64, n)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return vals, raw, false, nil
}

// pinIf returns pin only for zero-copy sections — heap copies have no
// external owner to keep alive.
func pinIf(mapped bool, pin any) any {
	if mapped {
		return pin
	}
	return nil
}

// readHeader consumes and validates the magic and version.
func readHeader(r *bytes.Reader) (uint16, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return 0, fmt.Errorf("codec: reading magic: %w", err)
	}
	if string(head[:]) != magic {
		return 0, fmt.Errorf("codec: bad magic %q", head)
	}
	var ver uint16
	if err := binary.Read(r, binary.LittleEndian, &ver); err != nil {
		return 0, fmt.Errorf("codec: reading version: %w", err)
	}
	if ver != version1 && ver != version2 {
		return 0, fmt.Errorf("codec: unsupported version %d (want %d or %d)", ver, version1, version2)
	}
	return ver, nil
}

// decodeHead reads everything before the matrix entries — magic and
// version, meta, schema, matrix dims and, in version 2, the alignment
// pad — and cross-validates the dims against the schema, so no float64
// section is read for a structurally broken file. It ends by checking
// that the matrix section's n×8 bytes are present, without reading
// them. n is the matrix entry count, at most matrix.MaxEntries.
func decodeHead(r *bytes.Reader) (p *Payload, ver uint16, dims []int, n int, err error) {
	if ver, err = readHeader(r); err != nil {
		return nil, 0, nil, 0, err
	}
	p = &Payload{}
	if p.Meta.Mechanism, err = readString(r); err != nil {
		return nil, 0, nil, 0, fmt.Errorf("codec: mechanism: %w", err)
	}
	for _, dst := range []*float64{&p.Meta.Epsilon, &p.Meta.Rho, &p.Meta.Lambda, &p.Meta.Bound} {
		if err := binary.Read(r, binary.LittleEndian, dst); err != nil {
			return nil, 0, nil, 0, fmt.Errorf("codec: meta floats: %w", err)
		}
	}
	if p.Schema, err = decodeSchema(r); err != nil {
		return nil, 0, nil, 0, err
	}
	nd, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, 0, nil, 0, fmt.Errorf("codec: matrix dim count: %w", err)
	}
	if nd == 0 || nd > 64 {
		return nil, 0, nil, 0, fmt.Errorf("codec: implausible dimensionality %d", nd)
	}
	dims = make([]int, nd)
	n = 1
	for i := range dims {
		d, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, 0, nil, 0, fmt.Errorf("codec: matrix dim %d: %w", i, err)
		}
		if d == 0 || d > uint64(matrix.MaxEntries/n) {
			return nil, 0, nil, 0, fmt.Errorf("codec: implausible dimension size %d", d)
		}
		dims[i] = int(d)
		n *= dims[i]
	}
	if want := p.Schema.Dims(); !slices.Equal(dims, want) {
		return nil, 0, nil, 0, fmt.Errorf("codec: matrix shape %v does not match schema %v", dims, want)
	}
	if ver == version2 {
		if err := skipPad(r); err != nil {
			return nil, 0, nil, 0, fmt.Errorf("codec: matrix padding: %w", err)
		}
	}
	if n > r.Len()/8 {
		return nil, 0, nil, 0, fmt.Errorf("codec: matrix entries: %w", io.ErrUnexpectedEOF)
	}
	return p, ver, dims, n, nil
}

func encodeSchema(w *countWriter, s *dataset.Schema) error {
	writeUvarint(w, uint64(s.NumAttrs()))
	for i := 0; i < s.NumAttrs(); i++ {
		a := s.Attr(i)
		if err := writeString(w, a.Name); err != nil {
			return err
		}
		kind := byte(0)
		if a.Kind == dataset.Nominal {
			kind = 1
		}
		if err := w.WriteByte(kind); err != nil {
			return err
		}
		writeUvarint(w, uint64(a.Size))
		if a.Kind == dataset.Nominal {
			if err := encodeNode(w, a.Hier.Root()); err != nil {
				return err
			}
		}
	}
	return nil
}

func decodeSchema(r *bytes.Reader) (*dataset.Schema, error) {
	count, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("codec: attr count: %w", err)
	}
	if count == 0 || count > 64 {
		return nil, fmt.Errorf("codec: implausible attribute count %d", count)
	}
	attrs := make([]dataset.Attribute, 0, count)
	for i := uint64(0); i < count; i++ {
		name, err := readString(r)
		if err != nil {
			return nil, fmt.Errorf("codec: attr %d name: %w", i, err)
		}
		kind, err := r.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("codec: attr %d kind: %w", i, err)
		}
		size, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, fmt.Errorf("codec: attr %d size: %w", i, err)
		}
		switch kind {
		case 0:
			attrs = append(attrs, dataset.OrdinalAttr(name, int(size)))
		case 1:
			root, err := decodeNode(r, 0)
			if err != nil {
				return nil, fmt.Errorf("codec: attr %d hierarchy: %w", i, err)
			}
			h, err := hierarchy.Build(root)
			if err != nil {
				return nil, fmt.Errorf("codec: attr %d hierarchy: %w", i, err)
			}
			if h.LeafCount() != int(size) {
				return nil, fmt.Errorf("codec: attr %d: hierarchy has %d leaves, size says %d", i, h.LeafCount(), size)
			}
			attrs = append(attrs, dataset.NominalAttr(name, h))
		default:
			return nil, fmt.Errorf("codec: attr %d: unknown kind byte %d", i, kind)
		}
	}
	return dataset.NewSchema(attrs...)
}

// maxHierarchyDepth bounds recursion on corrupt input.
const maxHierarchyDepth = 64

func encodeNode(w *countWriter, n *hierarchy.Node) error {
	if err := writeString(w, n.Label); err != nil {
		return err
	}
	writeUvarint(w, uint64(len(n.Children)))
	for _, c := range n.Children {
		if err := encodeNode(w, c); err != nil {
			return err
		}
	}
	return nil
}

func decodeNode(r *bytes.Reader, depth int) (*hierarchy.Node, error) {
	if depth > maxHierarchyDepth {
		return nil, fmt.Errorf("codec: hierarchy deeper than %d", maxHierarchyDepth)
	}
	label, err := readString(r)
	if err != nil {
		return nil, err
	}
	kids, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if kids > 1<<20 || kids > uint64(r.Len()/2) { // each child takes ≥ 2 bytes
		return nil, fmt.Errorf("codec: implausible child count %d", kids)
	}
	n := &hierarchy.Node{Label: label}
	for i := uint64(0); i < kids; i++ {
		c, err := decodeNode(r, depth+1)
		if err != nil {
			return nil, err
		}
		n.Children = append(n.Children, c)
	}
	return n, nil
}

// floatChunk is the number of float64 values converted per write on a
// big-endian host — 8 KiB buffers keep the encode loop out of per-entry
// call overhead without noticeable stack cost.
const floatChunk = 1024

// writeFloats writes vals as little-endian float64, feeding the same
// bytes to h when non-nil (the table checksum). A little-endian host
// writes the values' own memory in one write, mirroring takeFloats.
func writeFloats(w io.Writer, vals []float64, h hash.Hash32) error {
	var buf [floatChunk * 8]byte
	for len(vals) > 0 {
		k := min(floatChunk, len(vals))
		raw := buf[:k*8]
		if hostLittleEndian {
			k = len(vals)
			raw = unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), 8*k)
		} else {
			for i, v := range vals[:k] {
				binary.LittleEndian.PutUint64(raw[i*8:], math.Float64bits(v))
			}
		}
		if _, err := w.Write(raw); err != nil {
			return err
		}
		if h != nil {
			h.Write(raw)
		}
		vals = vals[k:]
	}
	return nil
}

// writePad emits the version-2 alignment pad: one length byte plus that
// many zeros, sized so the next write lands on an 8-byte boundary.
func writePad(w *countWriter) error {
	pad := byte((8 - (w.n+1)%8) % 8)
	if err := w.WriteByte(pad); err != nil {
		return err
	}
	var zeros [8]byte
	_, err := w.Write(zeros[:pad])
	return err
}

// skipPad consumes an alignment pad written by writePad.
func skipPad(r *bytes.Reader) error {
	pad, err := r.ReadByte()
	if err != nil {
		return err
	}
	if pad >= 8 {
		return fmt.Errorf("implausible pad length %d", pad)
	}
	var z [8]byte
	_, err = io.ReadFull(r, z[:pad])
	return err
}

func writeString(w *countWriter, s string) error {
	writeUvarint(w, uint64(len(s)))
	_, err := w.WriteString(s)
	return err
}

func readString(r *bytes.Reader) (string, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return "", err
	}
	if n > maxStringLen || n > uint64(r.Len()) {
		return "", fmt.Errorf("codec: string length %d exceeds limit or the %d bytes left", n, r.Len())
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func writeUvarint(w *countWriter, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n]) //nolint:errcheck // bufio.Writer caches the error for Flush
}
