// The shared node store behind every Manager view.
//
// A table owns the unique table, the node storage and the operation cache
// for one BDD universe. Many Manager views (created with Share) can use a
// single table concurrently: find-or-insert is lock-striped across
// nShards shards, node payloads live in immutable-once-published chunks
// reachable through an atomically swapped chunk directory, and the
// computed (ITE and DiffAnd) caches are seqlock-validated direct-mapped
// arrays that readers probe without locks and writers update with a
// CAS-guarded sequence protocol. Lookups of published nodes therefore
// never contend; only simultaneous inserts that land in the same shard
// serialize.
//
// Every cross-goroutine handoff of a Ref passes through a synchronizing
// edge — the shard mutex that published its node, an atomic computed-cache
// entry, or the caller's own pre-start synchronization — so the plain
// reads of node payloads are race-free: a node is fully written before the
// edge that makes its Ref visible.
package bdd

import (
	"fmt"
	"sync"
	"sync/atomic"
)

const (
	shardBits = 4
	nShards   = 1 << shardBits
	shardMask = nShards - 1

	chunkBits = 9
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1

	// maxShardNodes bounds the per-shard local index so a node id (local
	// index plus shard tag) and its complement bit always fit in an int32 Ref.
	maxShardNodes = 1 << 26
)

// node is one BDD node. The then (high) edge is always a regular
// (non-complemented) ref — the canonical complement-edge restriction —
// while the else (low) edge may carry the complement bit. Nodes are
// immutable once published.
type node struct {
	level int32
	low   Ref
	high  Ref
}

type nodeChunk [chunkSize]node

// shard is one lock stripe of the unique table. The buckets/next chains
// are touched only under mu; node payloads are written under mu before
// their local index is published and are read lock-free afterwards.
type shard struct {
	mu      sync.Mutex
	buckets []int32 // heads of hash chains, local indices, -1 empty
	mask    uint32
	next    []int32 // chain links, indexed by local node index
	count   int32   // nodes stored in this shard
	dir     atomic.Pointer[[]*nodeChunk]
}

// node returns the payload of the local index (lock-free; the caller must
// hold a happens-before edge to the node's publication, which every
// legitimately obtained Ref provides).
func (s *shard) node(local int32) *node {
	d := *s.dir.Load()
	return &d[local>>chunkBits][local&chunkMask]
}

// table is the shared state of one BDD universe.
type table struct {
	names   []string
	nameIdx map[string]int
	vars    []Ref // vars[i]: regular ref of the (x_i ? false : true) node, i.e. ¬x_i

	shards [nShards]shard
	count  atomic.Int64 // total nodes, terminals included

	cache  atomic.Pointer[opCache]
	growMu sync.Mutex // serializes computed-cache growth
	noGrow bool       // test hook: pin the cache size

	// epoch counts in-place adoptions (GC/sift). Views compare it against
	// their own satEpoch to invalidate per-view sat-count caches lazily.
	epoch atomic.Uint64
	views atomic.Int64
}

func newTable(names []string, nameIdx map[string]int) *table {
	t := &table{names: names, nameIdx: nameIdx}
	for i := range t.shards {
		s := &t.shards[i]
		s.buckets = make([]int32, 64)
		for j := range s.buckets {
			s.buckets[j] = -1
		}
		s.mask = uint32(len(s.buckets) - 1)
		empty := []*nodeChunk{}
		s.dir.Store(&empty)
	}
	// The single terminal node: id 0, shard 0, local 0. It represents the
	// constant false function (True is its complement edge) and is not
	// hashed into any bucket.
	s0 := &t.shards[0]
	ch := new(nodeChunk)
	ch[0] = node{level: terminalLevel}
	d := []*nodeChunk{ch}
	s0.dir.Store(&d)
	s0.count = 1
	s0.next = []int32{-1}
	t.count.Store(1)
	t.cache.Store(newOpCache(minCacheBits))
	t.views.Store(1)
	t.vars = make([]Ref, len(names))
	for i := range names {
		t.vars[i] = t.mkRaw(0, int32(i), True, False)
	}
	return t
}

// node returns the payload of a node id (Ref without its complement bit).
func (t *table) node(id int32) *node {
	return t.shards[id&shardMask].node(id >> shardBits)
}

func nodeHash(level int32, low, high Ref) uint32 {
	h := uint32(level)*0x9e3779b1 ^ uint32(low)*0x85ebca6b ^ uint32(high)*0xc2b2ae35
	h ^= h >> 15
	return h
}

// mkRaw finds or inserts the node (level, low, high) — already normalized
// to a regular high edge — and returns its regular Ref. limit > 0 arms the
// calling view's node watermark: the insert panics with ErrNodeLimit when
// the table has already reached it (checked after the lookup, so shared
// nodes keep resolving under a blown watermark and the panic fires only
// with the store consistent).
func (t *table) mkRaw(limit int, level int32, low, high Ref) Ref {
	h := nodeHash(level, low, high)
	s := &t.shards[h&shardMask]
	s.mu.Lock()
	slot := (h >> shardBits) & s.mask
	for li := s.buckets[slot]; li >= 0; li = s.next[li] {
		n := s.node(li)
		if n.level == level && n.low == low && n.high == high {
			s.mu.Unlock()
			id := li<<shardBits | int32(h&shardMask)
			return Ref(id << 1)
		}
	}
	if limit > 0 && int(t.count.Load()) >= limit {
		s.mu.Unlock()
		panic(ErrNodeLimit)
	}
	local := s.count
	if local >= maxShardNodes {
		s.mu.Unlock()
		panic(fmt.Sprintf("bdd: unique-table shard overflow (%d nodes)", local))
	}
	d := *s.dir.Load()
	if int(local>>chunkBits) >= len(d) {
		nd := make([]*nodeChunk, len(d)+1)
		copy(nd, d)
		nd[len(d)] = new(nodeChunk)
		s.dir.Store(&nd)
		d = nd
	}
	d[local>>chunkBits][local&chunkMask] = node{level: level, low: low, high: high}
	s.next = append(s.next, s.buckets[slot])
	s.buckets[slot] = local
	s.count = local + 1
	if int(s.count) > len(s.buckets) {
		s.growLocked()
	}
	s.mu.Unlock()
	total := t.count.Add(1)
	t.maybeGrowCache(total)
	id := local<<shardBits | int32(h&shardMask)
	return Ref(id << 1)
}

// growLocked doubles the shard's bucket array and rehashes its chains.
// Caller holds s.mu.
func (s *shard) growLocked() {
	nb := make([]int32, len(s.buckets)*2)
	for i := range nb {
		nb[i] = -1
	}
	s.mask = uint32(len(nb) - 1)
	for li := int32(0); li < s.count; li++ {
		n := s.node(li)
		if n.level == terminalLevel {
			continue // the terminal is not bucketed
		}
		slot := (nodeHash(n.level, n.low, n.high) >> shardBits) & s.mask
		s.next[li] = nb[slot]
		nb[slot] = li
	}
	s.buckets = nb
}

// maybeGrowCache doubles the computed cache once the node count outgrows
// it (up to maxCacheBits). Entries in the replaced cache are lost, which
// is harmless — the cache is only an accelerator.
func (t *table) maybeGrowCache(total int64) {
	c := t.cache.Load()
	if t.noGrow || c.bits >= maxCacheBits || total <= int64(len(c.entries)) {
		return
	}
	t.growMu.Lock()
	c = t.cache.Load()
	if !t.noGrow && c.bits < maxCacheBits && total > int64(len(c.entries)) {
		t.cache.Store(newOpCache(c.bits + 1))
	}
	t.growMu.Unlock()
}

// adoptFrom replaces the table's contents in place with src's: shard guts,
// node count, variable order and variable nodes. The computed caches are
// reset (their ITE and DiffAnd entries name ids of the replaced store)
// and the epoch is bumped so every view sharing the table lazily drops
// its sat-count cache. Callers must hold the table quiescent — no
// concurrent readers or writers — which the campaign layer guarantees
// with its analysis lock.
// src must not be used afterwards.
func (t *table) adoptFrom(src *table) {
	t.names, t.nameIdx, t.vars = src.names, src.nameIdx, src.vars
	for i := range t.shards {
		d, s := &t.shards[i], &src.shards[i]
		d.mu.Lock()
		d.buckets, d.mask, d.next, d.count = s.buckets, s.mask, s.next, s.count
		d.dir.Store(s.dir.Load())
		d.mu.Unlock()
	}
	t.count.Store(src.count.Load())
	t.cache.Store(newOpCache(t.cache.Load().bits))
	t.epoch.Add(1)
}

// opCache is the computed table: a direct-mapped cache of ITE results
// (And/Or/Xor are normalized ITE triples, so one cache serves them all)
// plus a smaller one of DiffAnd results, the only four-operand operation.
// The two live in one struct so they are created, grown, reset (adoptFrom)
// and pinned (setCacheBits) together. Entries are seqlock-validated: the
// sequence word is 0 when empty, odd while a writer is mid-update, and
// advances by two per publish, so a reader that sees the same even
// sequence before and after loading the payload words has a consistent
// entry. Writers skip the slot (the cache is lossy) rather than wait.
type opCache struct {
	bits    uint
	mask    uint32
	entries []cacheEnt

	diffMask uint32
	diff     []diffEnt
}

type cacheEnt struct {
	seq atomic.Uint32
	a   atomic.Uint64 // f<<32 | g
	b   atomic.Uint64 // h<<32 | res
}

type diffEnt struct {
	seq atomic.Uint32
	res atomic.Uint32
	a   atomic.Uint64 // fa<<32 | fb
	b   atomic.Uint64 // da<<32 | db
}

// diffCacheShift sizes the DiffAnd cache at 1/8 of the ITE cache's
// entries, so it grows with the node count exactly as the ITE cache does.
// The fraction trades speed on large tables against memory on small
// ones. On the first 116 C1908s stuck-at faults, a cache at 1/2 the ITE
// size charges 18.0 M ops, 1/8 charges 24.5 M and 1/64 charges 36.8 M,
// and 1/64 also ran the two-worker campaign 10-20% slower. At 1/8, a
// campaign over six small circuits peaks ~0.9 MB (1.5%) above the
// kernel-less code.
const diffCacheShift = 3

func newOpCache(bits uint) *opCache {
	dbits := uint(0)
	if bits > diffCacheShift {
		dbits = bits - diffCacheShift
	}
	return &opCache{
		bits: bits, mask: uint32(1)<<bits - 1, entries: make([]cacheEnt, 1<<bits),
		diffMask: uint32(1)<<dbits - 1, diff: make([]diffEnt, 1<<dbits),
	}
}

func iteHash(f, g, h Ref) uint32 {
	x := uint32(f)*0x9e3779b1 ^ uint32(g)*0x85ebca6b ^ uint32(h)*0xc2b2ae35
	x ^= x >> 14
	return x
}

func (c *opCache) get(f, g, h Ref) (Ref, bool) {
	e := &c.entries[iteHash(f, g, h)&c.mask]
	s1 := e.seq.Load()
	if s1 == 0 || s1&1 != 0 {
		return 0, false
	}
	a := e.a.Load()
	b := e.b.Load()
	if e.seq.Load() != s1 {
		return 0, false
	}
	if uint32(a>>32) != uint32(f) || uint32(a) != uint32(g) || uint32(b>>32) != uint32(h) {
		return 0, false
	}
	return Ref(int32(uint32(b))), true
}

func (c *opCache) put(f, g, h, res Ref) {
	e := &c.entries[iteHash(f, g, h)&c.mask]
	s := e.seq.Load()
	if s&1 != 0 {
		return // a writer owns the slot; drop the insert
	}
	if !e.seq.CompareAndSwap(s, s+1) {
		return
	}
	e.a.Store(uint64(uint32(f))<<32 | uint64(uint32(g)))
	e.b.Store(uint64(uint32(h))<<32 | uint64(uint32(res)))
	e.seq.Store(s + 2)
}

func pair(x, y Ref) uint64 { return uint64(uint32(x))<<32 | uint64(uint32(y)) }

func diffHash(fa, fb, da, db Ref) uint32 {
	x := uint32(fa)*0x9e3779b1 ^ uint32(fb)*0x85ebca6b ^ uint32(da)*0xc2b2ae35 ^ uint32(db)*0x27d4eb2f
	x ^= x >> 15
	return x
}

func (c *opCache) getDiff(fa, fb, da, db Ref) (Ref, bool) {
	e := &c.diff[diffHash(fa, fb, da, db)&c.diffMask]
	s1 := e.seq.Load()
	if s1 == 0 || s1&1 != 0 {
		return 0, false
	}
	a, b, r := e.a.Load(), e.b.Load(), e.res.Load()
	if e.seq.Load() != s1 || a != pair(fa, fb) || b != pair(da, db) {
		return 0, false
	}
	return Ref(int32(r)), true
}

func (c *opCache) putDiff(fa, fb, da, db, res Ref) {
	e := &c.diff[diffHash(fa, fb, da, db)&c.diffMask]
	s := e.seq.Load()
	if s&1 != 0 || !e.seq.CompareAndSwap(s, s+1) {
		return // a writer owns the slot; drop the insert
	}
	e.a.Store(pair(fa, fb))
	e.b.Store(pair(da, db))
	e.res.Store(uint32(res))
	e.seq.Store(s + 2)
}
