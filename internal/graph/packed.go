package graph

import (
	"fmt"
	"math/bits"

	"gnnlab/internal/par"
)

// Packed is the compressed, mmap-able topology store: a View whose
// adjacency lives in delta-varint-encoded neighbor blocks instead of the
// CSR's 8 B/vertex RowPtr + 4 B/edge ColIdx arrays. Neighbor lists are
// already dst-sorted, so on power-law graphs most gaps fit one varint
// byte and the whole topology compresses 2.5-3.5x (see DESIGN.md
// "Compressed topology"); TopologyBytes reports the true compressed
// size, so PlanMemory and the planning experiments see the real savings.
//
// Layout. Vertices are grouped into fixed blocks of PackedBlockSize. A
// directory holds one 32-byte entry per block (plus a sentinel) with the
// block's absolute byte offset into the neighbor blob, its absolute
// first-edge index, its absolute byte offset into the sub-offset
// streams, and the two per-block bit widths. Inside a block, every
// vertex's row-start byte offset and first-edge index are bit-packed as
// deltas from the block base, which makes Degree and row location O(1):
//
//	Degree(v)  = edgeSub(i+1) - edgeSub(i)          (block-relative)
//	row bytes  = blob[byteOff + byteSub(i) : ...]    (decode Degree varints)
//
// A row is encoded as varint(zigzag(nbr[0] - v)) followed by plain
// varint gaps nbr[k] - nbr[k-1] (>= 0; duplicate edges encode as a
// one-byte zero gap). Edge weights, when present, stay as raw float32 in
// edge order — weighted and unweighted topology bytes are reported
// separately, exactly like CSR.
//
// Packed is immutable once built and safe for concurrent readers. Adj
// allocates per call (it cannot alias compressed storage); hot paths use
// the NeighborDecoder fast path AdjInto with a reused buffer instead.
type Packed struct {
	n       int
	e       int64
	maxDeg  int64
	block   int    // vertices per directory block
	dir     []byte // (numBlocks+1) * packedDirEntry bytes, little endian
	subs    []byte // per-block bit-packed byte/edge sub-offset streams
	blob    []byte // delta-varint neighbor rows
	weights []float32
}

var (
	_ View            = (*Packed)(nil)
	_ NeighborDecoder = (*Packed)(nil)
)

// PackedBlockSize is the number of vertices per directory block. 64 keeps
// the directory at 0.5 B/vertex (vs CSR's 8 B/vertex RowPtr) while the
// bit-packed sub-offsets add ~2-3 B/vertex on benchmark graphs.
const PackedBlockSize = 64

// packedDirEntry is the byte size of one directory entry:
// byteOff u64 | edgeOff u64 | subOff u64 | byteBits u8 | edgeBits u8 | pad[6].
const packedDirEntry = 32

// maxSubBits bounds the per-block bit widths; real widths are
// bits.Len64(section length) <= ~40, and <= 57 guarantees a bit-packed
// value never spans more than 8 bytes, which keeps readBits one load.
const maxSubBits = 57

// Pack compresses g into a Packed topology. Encoding fans the per-block
// work across Workers(workers) goroutines via internal/par; the output
// bytes are identical at any worker count (blocks are identified by
// vertex range and assembled in block order).
func Pack(g View, workers int) *Packed {
	n := g.NumVertices()
	e := g.NumEdges()
	nb := numBlocks(n, PackedBlockSize)

	type blockEnc struct {
		blob   []byte
		subs   []byte
		edges  int64
		maxDeg int64
		bBits  uint8
		eBits  uint8
	}
	blocks := make([]blockEnc, nb)
	par.ForEach(workers, nb, func(_, b int) {
		lo := b * PackedBlockSize
		hi := lo + PackedBlockSize
		if hi > n {
			hi = n
		}
		var (
			byteSubs [PackedBlockSize]uint64
			edgeSubs [PackedBlockSize]uint64
			blob     []byte
			edges    int64
			maxDeg   int64
		)
		for v := lo; v < hi; v++ {
			i := v - lo
			byteSubs[i] = uint64(len(blob))
			edgeSubs[i] = uint64(edges)
			adj := g.Adj(int32(v))
			if d := int64(len(adj)); d > maxDeg {
				maxDeg = d
			}
			if len(adj) == 0 {
				continue
			}
			blob = appendUvarint(blob, zigzag(int64(adj[0])-int64(v)))
			prev := adj[0]
			for _, nbr := range adj[1:] {
				blob = appendUvarint(blob, uint64(int64(nbr)-int64(prev)))
				prev = nbr
			}
			edges += int64(len(adj))
		}
		bBits := uint8(bits.Len64(uint64(len(blob))))
		eBits := uint8(bits.Len64(uint64(edges)))
		var bw bitWriter
		cnt := hi - lo
		for i := 0; i < cnt; i++ {
			bw.write(byteSubs[i], bBits)
		}
		for i := 0; i < cnt; i++ {
			bw.write(edgeSubs[i], eBits)
		}
		blocks[b] = blockEnc{
			blob: blob, subs: bw.bytes(),
			edges: edges, maxDeg: maxDeg,
			bBits: bBits, eBits: eBits,
		}
	})

	// Assemble in block order: prefix-sum the absolute offsets into the
	// directory, then concatenate the per-block sub streams and blobs.
	p := &Packed{n: n, e: e, block: PackedBlockSize}
	p.dir = make([]byte, (nb+1)*packedDirEntry)
	var byteOff, edgeOff, subOff uint64
	var blobLen, subsLen int
	for _, be := range blocks {
		blobLen += len(be.blob)
		subsLen += len(be.subs)
	}
	p.blob = make([]byte, 0, blobLen)
	p.subs = make([]byte, 0, subsLen)
	for b, be := range blocks {
		putDirEntry(p.dir[b*packedDirEntry:], byteOff, edgeOff, subOff, be.bBits, be.eBits)
		p.blob = append(p.blob, be.blob...)
		p.subs = append(p.subs, be.subs...)
		byteOff += uint64(len(be.blob))
		edgeOff += uint64(be.edges)
		subOff += uint64(len(be.subs))
		if be.maxDeg > p.maxDeg {
			p.maxDeg = be.maxDeg
		}
	}
	putDirEntry(p.dir[nb*packedDirEntry:], byteOff, edgeOff, subOff, 0, 0)

	if g.Weighted() {
		p.weights = make([]float32, 0, e)
		for v := 0; v < n; v++ {
			p.weights = append(p.weights, g.AdjWeights(int32(v))...)
		}
	}
	return p
}

// NumVertices returns the number of vertices.
func (p *Packed) NumVertices() int { return p.n }

// NumEdges returns the number of directed edges.
func (p *Packed) NumEdges() int64 { return p.e }

// Weighted reports whether the graph carries edge weights.
func (p *Packed) Weighted() bool { return p.weights != nil }

// TopologyBytes returns the true compressed topology size (directory +
// sub-offset streams + neighbor blob + weights) — the Vol_G a Sampler
// must fit in GPU memory when it loads the packed layout.
func (p *Packed) TopologyBytes() int64 {
	b := p.TopologyBytesUnweighted()
	if p.weights != nil {
		b += int64(len(p.weights)) * 4
	}
	return b
}

// TopologyBytesUnweighted returns the compressed topology size excluding
// edge weights.
func (p *Packed) TopologyBytesUnweighted() int64 {
	return int64(len(p.dir)) + int64(len(p.subs)) + int64(len(p.blob))
}

// rowMeta locates v's row: its absolute first-edge index, its degree and
// its absolute byte offset into the blob. All lookups are O(1): two
// directory entries plus three bit-packed sub-offset reads. Results are
// clamped to the section bounds so a structurally-valid-but-corrupt
// buffer (PackedFromBytes without Validate) degrades to empty rows
// instead of panicking.
func (p *Packed) rowMeta(v VertexID) (edgeLo int64, deg int64, byteStart uint64) {
	b := int(v) / p.block
	i := uint64(int(v) % p.block)
	byteOff, edgeOff, subOff, bBits, eBits := dirEntry(p.dir, b)
	cnt := uint64(p.blockLen(b))
	base := subOff * 8
	byteSub := readBits(p.subs, base+i*uint64(bBits), bBits)
	edgeBase := base + cnt*uint64(bBits)
	edgeSub := readBits(p.subs, edgeBase+i*uint64(eBits), eBits)
	lo := edgeOff + edgeSub
	var hi uint64
	if i+1 < cnt {
		hi = edgeOff + readBits(p.subs, edgeBase+(i+1)*uint64(eBits), eBits)
	} else {
		_, hi, _, _, _ = dirEntry(p.dir, b+1)
	}
	if hi < lo {
		hi = lo
	}
	deg = int64(hi - lo)
	byteStart = byteOff + byteSub
	if byteStart > uint64(len(p.blob)) {
		return int64(lo), 0, uint64(len(p.blob))
	}
	// Every encoded neighbor takes at least one byte, so a degree larger
	// than the remaining blob is corruption; clamping keeps decode safe.
	if rem := int64(len(p.blob)) - int64(byteStart); deg > rem {
		deg = rem
	}
	return int64(lo), deg, byteStart
}

// Degree returns the out-degree of v in O(1).
func (p *Packed) Degree(v VertexID) int64 {
	_, deg, _ := p.rowMeta(v)
	return deg
}

// AdjInto implements NeighborDecoder: it decodes the out-neighbors of v
// into buf when cap(buf) suffices, into a freshly allocated slice
// otherwise, and returns the decoded row. The result is caller-owned
// (never aliases graph storage), so callers may mutate it in place and
// should keep the returned slice as the next call's buf.
func (p *Packed) AdjInto(v VertexID, buf []int32) []int32 {
	_, deg, byteStart := p.rowMeta(v)
	if deg == 0 {
		return buf[:0]
	}
	if int64(cap(buf)) < deg {
		buf = make([]int32, deg)
	}
	out := buf[:deg]
	blob := p.blob
	pos := int(byteStart)
	u, pos := readUvarint(blob, pos)
	cur := int64(v) + unzigzag(u)
	out[0] = int32(cur)
	for i := int64(1); i < deg; i++ {
		// Inline fast path for 1- and 2-byte gap varints — on sorted
		// power-law adjacency nearly every gap fits 14 bits, and the
		// generic byte-loop call costs more than the decode itself.
		if pos < len(blob) {
			c := blob[pos]
			if c < 0x80 {
				pos++
				cur += int64(c)
				out[i] = int32(cur)
				continue
			}
			if pos+1 < len(blob) {
				if c2 := blob[pos+1]; c2 < 0x80 {
					pos += 2
					cur += int64(c&0x7f) | int64(c2)<<7
					out[i] = int32(cur)
					continue
				}
			}
		}
		u, pos = readUvarint(blob, pos)
		cur += int64(u)
		out[i] = int32(cur)
	}
	return out
}

// Adj returns the out-neighbors of v in a freshly allocated slice. Unlike
// CSR.Adj it cannot alias compressed storage; hot paths should use
// AdjInto with a reused buffer (the sampling scratch arenas do).
func (p *Packed) Adj(v VertexID) []int32 { return p.AdjInto(v, nil) }

// AdjWeights returns the weights parallel to Adj(v), or nil when the
// graph is unweighted. Weights are stored raw, so the slice aliases graph
// storage and must not be modified.
func (p *Packed) AdjWeights(v VertexID) []float32 {
	if p.weights == nil {
		return nil
	}
	lo, deg, _ := p.rowMeta(v)
	hi := lo + deg
	if lo < 0 || hi > int64(len(p.weights)) {
		return nil
	}
	return p.weights[lo:hi]
}

// Unpack decompresses p back into a CSR — the inverse of Pack, used by
// tests and by callers that need mutable or aliasing adjacency.
func (p *Packed) Unpack() *CSR {
	g := &CSR{
		RowPtr: make([]int64, p.n+1),
		ColIdx: make([]int32, 0, p.e),
	}
	buf := make([]int32, 0, p.maxDeg)
	for v := 0; v < p.n; v++ {
		buf = p.AdjInto(int32(v), buf)
		g.ColIdx = append(g.ColIdx, buf...)
		g.RowPtr[v+1] = int64(len(g.ColIdx))
	}
	if p.weights != nil {
		g.Weights = append([]float32(nil), p.weights...)
	}
	return g
}

// Validate decodes every row with bounds checking and returns a
// descriptive error for the first structural violation: non-monotone
// offsets, rows that do not tile the blob exactly, out-of-range neighbor
// IDs, or header counts that disagree with the decoded totals. It is the
// deep O(|E|) check behind ReadPackedFrom; PackedFromBytes alone performs
// only the O(blocks) structural checks.
func (p *Packed) Validate() error {
	if p.n < 0 || p.e < 0 || p.block <= 0 {
		return fmt.Errorf("graph: packed: bad shape n=%d e=%d block=%d", p.n, p.e, p.block)
	}
	nb := numBlocks(p.n, p.block)
	if len(p.dir) != (nb+1)*packedDirEntry {
		return fmt.Errorf("graph: packed: dir length %d, want %d", len(p.dir), (nb+1)*packedDirEntry)
	}
	var edges, maxDeg int64
	pos := 0
	for v := 0; v < p.n; v++ {
		lo, deg, byteStart := p.rowMeta(int32(v))
		if lo != edges {
			return fmt.Errorf("graph: packed: vertex %d edge offset %d, want %d", v, lo, edges)
		}
		if deg > 0 && byteStart != uint64(pos) {
			return fmt.Errorf("graph: packed: vertex %d row starts at byte %d, want %d", v, byteStart, pos)
		}
		if deg > maxDeg {
			maxDeg = deg
		}
		prev := int64(-1)
		for i := int64(0); i < deg; i++ {
			u, next := readUvarint(p.blob, pos)
			if next == pos {
				return fmt.Errorf("graph: packed: truncated varint in vertex %d", v)
			}
			pos = next
			var nbr int64
			if i == 0 {
				nbr = int64(v) + unzigzag(u)
			} else {
				nbr = prev + int64(u)
			}
			if nbr < 0 || nbr >= int64(p.n) {
				return fmt.Errorf("graph: packed: vertex %d neighbor %d out of range (n=%d)", v, nbr, p.n)
			}
			prev = nbr
		}
		edges += deg
	}
	if pos != len(p.blob) {
		return fmt.Errorf("graph: packed: rows cover %d blob bytes, want %d", pos, len(p.blob))
	}
	if edges != p.e {
		return fmt.Errorf("graph: packed: decoded %d edges, header says %d", edges, p.e)
	}
	if maxDeg != p.maxDeg {
		return fmt.Errorf("graph: packed: max degree %d, header says %d", maxDeg, p.maxDeg)
	}
	if p.weights != nil {
		if int64(len(p.weights)) != p.e {
			return fmt.Errorf("graph: packed: len(weights) = %d, want %d", len(p.weights), p.e)
		}
		for i, w := range p.weights {
			if w < 0 || w != w {
				return fmt.Errorf("graph: packed: invalid weight %v at edge %d", w, i)
			}
		}
	}
	return nil
}

// blockLen returns the number of vertices in block b (the last block may
// be partial).
func (p *Packed) blockLen(b int) int {
	lo := b * p.block
	if lo+p.block <= p.n {
		return p.block
	}
	return p.n - lo
}

func numBlocks(n, block int) int {
	if n <= 0 {
		return 0
	}
	return (n + block - 1) / block
}
