package graph

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Packed binary format, little endian, all sections 8-byte aligned so a
// file written by WritePacked can be memory-mapped and handed straight to
// PackedFromBytes — one read, no per-edge parsing:
//
//	magic     uint32 = 0x474E5001 ("GNP" + version 1)
//	flags     uint32 (bit 0: weighted)
//	nVerts    uint64
//	nEdges    uint64
//	maxDeg    uint64
//	blockSize uint32
//	reserved  uint32 (zero; pads the header to 56 bytes)
//	subsLen   uint64
//	blobLen   uint64
//	dir       (numBlocks+1) × 32 bytes
//	subs      subsLen bytes, zero-padded to a multiple of 8
//	blob      blobLen bytes, zero-padded to a multiple of 8
//	weights   nEdges × float32 (only when weighted)

// PackedMagic identifies the packed topology format (and its version) in
// the first four bytes — container formats peek it to dispatch readers.
const PackedMagic uint32 = 0x474E5001

const packedHeaderLen = 56

// appendUvarint appends x in base-128 varint form (low 7 bits first).
func appendUvarint(dst []byte, x uint64) []byte {
	for x >= 0x80 {
		dst = append(dst, byte(x)|0x80)
		x >>= 7
	}
	return append(dst, byte(x))
}

// readUvarint decodes a varint from b starting at pos and returns the
// value and the new position. It never panics and never moves pos
// backwards: on truncated input it consumes to the end of b, and bits
// past the 64th are dropped (Go shifts >= 64 yield 0), so adversarial
// bytes decode to garbage values, not faults — Validate rejects them.
func readUvarint(b []byte, pos int) (uint64, int) {
	var u uint64
	var shift uint
	for pos < len(b) {
		c := b[pos]
		pos++
		u |= uint64(c&0x7f) << shift
		if c < 0x80 {
			break
		}
		shift += 7
		if shift > 63 {
			break
		}
	}
	return u, pos
}

// zigzag maps signed deltas to unsigned varint-friendly values
// (0,-1,1,-2,... -> 0,1,2,3,...); only a row's first neighbor needs it.
func zigzag(x int64) uint64 { return uint64((x << 1) ^ (x >> 63)) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// bitWriter packs fixed-width values LSB-first into a little-endian byte
// stream — the encoder side of readBits.
type bitWriter struct {
	buf  []byte
	nbit uint
}

func (w *bitWriter) write(v uint64, width uint8) {
	if width < 64 {
		v &= uint64(1)<<width - 1
	}
	for got := uint(0); got < uint(width); {
		if w.nbit == 0 {
			w.buf = append(w.buf, 0)
			w.nbit = 8
		}
		// Fill the low bits first: OR the next chunk of v at the byte's
		// current fill position; byte arithmetic drops whatever overflows.
		w.buf[len(w.buf)-1] |= byte(v>>got) << (8 - w.nbit)
		take := w.nbit
		if rem := uint(width) - got; take > rem {
			take = rem
		}
		w.nbit -= take
		got += take
	}
}

func (w *bitWriter) bytes() []byte { return w.buf }

// readBits reads a width-bit little-endian value starting at absolute bit
// position bit. width <= maxSubBits guarantees the value spans at most 8
// bytes, so one unaligned load covers it; reads past the end of buf see
// zeros (corrupt directories degrade to clamped offsets, not panics).
func readBits(buf []byte, bit uint64, width uint8) uint64 {
	if width == 0 {
		return 0
	}
	base := int(bit >> 3)
	shift := uint(bit & 7)
	var x uint64
	if base+8 <= len(buf) {
		x = binary.LittleEndian.Uint64(buf[base:])
	} else {
		for j := 0; j < 8 && base+j < len(buf); j++ {
			x |= uint64(buf[base+j]) << (8 * j)
		}
	}
	x >>= shift
	if width >= 64 {
		return x
	}
	return x & (uint64(1)<<width - 1)
}

// putDirEntry writes one directory entry into dst.
func putDirEntry(dst []byte, byteOff, edgeOff, subOff uint64, bBits, eBits uint8) {
	binary.LittleEndian.PutUint64(dst[0:], byteOff)
	binary.LittleEndian.PutUint64(dst[8:], edgeOff)
	binary.LittleEndian.PutUint64(dst[16:], subOff)
	dst[24] = bBits
	dst[25] = eBits
	for i := 26; i < packedDirEntry; i++ {
		dst[i] = 0
	}
}

// dirEntry reads directory entry b.
func dirEntry(dir []byte, b int) (byteOff, edgeOff, subOff uint64, bBits, eBits uint8) {
	d := dir[b*packedDirEntry:]
	return binary.LittleEndian.Uint64(d[0:]),
		binary.LittleEndian.Uint64(d[8:]),
		binary.LittleEndian.Uint64(d[16:]),
		d[24], d[25]
}

func pad8(n int) int { return (n + 7) &^ 7 }

// AppendTo appends p's serialized form to dst and returns the extended
// slice. The layout is versioned, little endian, and 8-byte aligned per
// section (relative to the start of the header), so the result can be
// written to disk once and later mapped back with PackedFromBytes.
func (p *Packed) AppendTo(dst []byte) []byte {
	var flags uint32
	if p.weights != nil {
		flags |= 1
	}
	var hdr [packedHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], PackedMagic)
	binary.LittleEndian.PutUint32(hdr[4:], flags)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(p.n))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(p.e))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(p.maxDeg))
	binary.LittleEndian.PutUint32(hdr[32:], uint32(p.block))
	binary.LittleEndian.PutUint32(hdr[36:], 0)
	binary.LittleEndian.PutUint64(hdr[40:], uint64(len(p.subs)))
	binary.LittleEndian.PutUint64(hdr[48:], uint64(len(p.blob)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, p.dir...)
	dst = append(dst, p.subs...)
	for i := len(p.subs); i < pad8(len(p.subs)); i++ {
		dst = append(dst, 0)
	}
	dst = append(dst, p.blob...)
	for i := len(p.blob); i < pad8(len(p.blob)); i++ {
		dst = append(dst, 0)
	}
	if p.weights != nil {
		var w4 [4]byte
		for _, w := range p.weights {
			binary.LittleEndian.PutUint32(w4[:], math.Float32bits(w))
			dst = append(dst, w4[:]...)
		}
	}
	return dst
}

// packedSize returns the exact serialized length of a packed graph with
// the given section sizes.
func packedSize(dirLen, subsLen, blobLen int, weighted bool, nEdges int64) int64 {
	sz := int64(packedHeaderLen) + int64(dirLen) + int64(pad8(subsLen)) + int64(pad8(blobLen))
	if weighted {
		sz += nEdges * 4
	}
	return sz
}

// PackedFromBytes reconstructs a Packed from a buffer produced by
// AppendTo (e.g. a memory-mapped file). The directory, sub-offset and
// blob sections alias data — zero copy, no per-edge parsing; only edge
// weights (floats) are materialized. It performs the cheap O(blocks)
// structural checks (magic, section bounds, monotone directory offsets,
// sane bit widths); callers that cannot trust the bytes should follow
// with Validate, which decodes every row. data must not be modified
// while the returned graph is in use.
func PackedFromBytes(data []byte) (*Packed, error) {
	if len(data) < packedHeaderLen {
		return nil, fmt.Errorf("graph: packed: short header (%d bytes)", len(data))
	}
	magic := binary.LittleEndian.Uint32(data[0:])
	if magic != PackedMagic {
		return nil, fmt.Errorf("graph: packed: bad magic %#x", magic)
	}
	flags := binary.LittleEndian.Uint32(data[4:])
	if flags&^uint32(1) != 0 {
		return nil, fmt.Errorf("graph: packed: unknown flags %#x", flags)
	}
	nVerts := binary.LittleEndian.Uint64(data[8:])
	nEdges := binary.LittleEndian.Uint64(data[16:])
	maxDeg := binary.LittleEndian.Uint64(data[24:])
	block := binary.LittleEndian.Uint32(data[32:])
	subsLen := binary.LittleEndian.Uint64(data[40:])
	blobLen := binary.LittleEndian.Uint64(data[48:])
	const maxReasonable = 1 << 33
	if nVerts > maxReasonable || nEdges > maxReasonable {
		return nil, fmt.Errorf("graph: packed: implausible sizes nVerts=%d nEdges=%d", nVerts, nEdges)
	}
	if block == 0 || block > 1<<20 {
		return nil, fmt.Errorf("graph: packed: implausible block size %d", block)
	}
	if maxDeg > nEdges {
		return nil, fmt.Errorf("graph: packed: max degree %d exceeds edge count %d", maxDeg, nEdges)
	}
	if subsLen > uint64(len(data)) || blobLen > uint64(len(data)) {
		return nil, fmt.Errorf("graph: packed: section lengths exceed buffer")
	}
	nb := numBlocks(int(nVerts), int(block))
	dirLen := (nb + 1) * packedDirEntry
	want := packedSize(dirLen, int(subsLen), int(blobLen), flags&1 != 0, int64(nEdges))
	if int64(len(data)) != want {
		return nil, fmt.Errorf("graph: packed: buffer is %d bytes, want %d", len(data), want)
	}
	p := &Packed{
		n:      int(nVerts),
		e:      int64(nEdges),
		maxDeg: int64(maxDeg),
		block:  int(block),
	}
	off := packedHeaderLen
	p.dir = data[off : off+dirLen : off+dirLen]
	off += dirLen
	p.subs = data[off : off+int(subsLen) : off+int(subsLen)]
	off += pad8(int(subsLen))
	p.blob = data[off : off+int(blobLen) : off+int(blobLen)]
	off += pad8(int(blobLen))
	if flags&1 != 0 {
		p.weights = make([]float32, nEdges)
		wb := data[off:]
		for i := range p.weights {
			p.weights[i] = math.Float32frombits(binary.LittleEndian.Uint32(wb[i*4:]))
		}
	}
	// Structural directory checks: offsets monotone, widths bounded, the
	// sentinel entry closes the sections, and every block's sub stream
	// fits its slot. O(blocks); Validate does the O(|E|) row decode.
	var prevB, prevE, prevS uint64
	for b := 0; b <= nb; b++ {
		byteOff, edgeOff, subOff, bBits, eBits := dirEntry(p.dir, b)
		if byteOff < prevB || edgeOff < prevE || subOff < prevS {
			return nil, fmt.Errorf("graph: packed: directory offsets not monotone at block %d", b)
		}
		if bBits > maxSubBits || eBits > maxSubBits {
			return nil, fmt.Errorf("graph: packed: block %d bit widths %d/%d exceed %d", b, bBits, eBits, maxSubBits)
		}
		if b < nb {
			cnt := uint64(p.blockLen(b))
			need := (cnt*uint64(bBits) + cnt*uint64(eBits) + 7) / 8
			if subOff+need > subsLen {
				return nil, fmt.Errorf("graph: packed: block %d sub stream overruns section", b)
			}
		}
		prevB, prevE, prevS = byteOff, edgeOff, subOff
	}
	if prevB != blobLen || prevE != nEdges || prevS > subsLen {
		return nil, fmt.Errorf("graph: packed: sentinel entry (%d,%d,%d) disagrees with sections (%d,%d,%d)",
			prevB, prevE, prevS, blobLen, nEdges, subsLen)
	}
	return p, nil
}

// WritePacked serializes p to w in the packed binary format.
func WritePacked(w io.Writer, p *Packed) error {
	buf := p.AppendTo(make([]byte, 0, packedSize(len(p.dir), len(p.subs), len(p.blob), p.weights != nil, p.e)))
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("graph: write packed: %w", err)
	}
	return nil
}

// ReadPackedFrom deserializes a Packed reading exactly the graph's bytes
// from r (no read-ahead), so it composes inside larger container formats
// like the dataset file. The body lands in one buffer, grown as it
// arrives (see AppendSection) — no per-edge parsing — and the result is
// deep-validated, mirroring ReadBinaryFrom.
func ReadPackedFrom(br io.Reader) (*Packed, error) {
	hdr := make([]byte, packedHeaderLen)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("graph: packed: read header: %w", err)
	}
	magic := binary.LittleEndian.Uint32(hdr[0:])
	if magic != PackedMagic {
		return nil, fmt.Errorf("graph: packed: bad magic %#x", magic)
	}
	flags := binary.LittleEndian.Uint32(hdr[4:])
	nVerts := binary.LittleEndian.Uint64(hdr[8:])
	nEdges := binary.LittleEndian.Uint64(hdr[16:])
	block := binary.LittleEndian.Uint32(hdr[32:])
	subsLen := binary.LittleEndian.Uint64(hdr[40:])
	blobLen := binary.LittleEndian.Uint64(hdr[48:])
	const maxReasonable = 1 << 33
	if nVerts > maxReasonable || nEdges > maxReasonable ||
		subsLen > maxReasonable || blobLen > maxReasonable || block == 0 || block > 1<<20 {
		return nil, fmt.Errorf("graph: packed: implausible header")
	}
	nb := numBlocks(int(nVerts), int(block))
	dirLen := (nb + 1) * packedDirEntry
	total := packedSize(dirLen, int(subsLen), int(blobLen), flags&1 != 0, int64(nEdges))
	data, err := AppendSection(br, hdr, uint64(total-packedHeaderLen))
	if err != nil {
		return nil, fmt.Errorf("graph: packed: read body: %w", err)
	}
	p, err := PackedFromBytes(data)
	if err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
