// The shared node store behind every Manager view.
//
// A table owns the unique table, the node storage and the operation cache
// for one BDD universe. Many Manager views (created with Share) can use a
// single table concurrently. The unique table is split into nShards
// shards, each a chained hash table guarded by its own mutex for writes:
//
//   - Find first walks the node's hash chain with no lock. Bucket heads
//     are an atomically published array read with atomic loads, and each
//     node carries its chain link as an atomic word beside its payload,
//     so a hit (most lookups find an existing node) costs only atomic
//     loads.
//   - A miss takes the shard mutex, walks the chain again, and only then
//     checks the node watermark and inserts: payload and link are written
//     first, then the bucket head is published.
//   - Growth relinks every node into a doubled bucket array under the
//     mutex and then publishes the new array; until then the new array is
//     private, so its heads are written with plain stores, and only the
//     links of live nodes need atomic ones. A lock-free walk racing the
//     relink may stray into another chain and miss; a miss always falls
//     back to the locked path, so the only cost is a retry. Links always
//     point to a lower local index (inserts prepend the newest node;
//     relinking visits nodes in index order), so every walk ends.
//
// Node payloads live in immutable-once-published chunks reachable through
// an atomically swapped chunk directory. The computed cache (ITE, DiffAnd
// and BooleanDiff results) is a seqlock-validated direct-mapped array that
// readers probe without locks and writers update with a CAS-guarded
// sequence protocol.
// Only simultaneous inserts that land in the same shard serialize.
//
// Every cross-goroutine handoff of a Ref passes through a synchronizing
// edge — the atomic bucket head or chain link that published its node, an
// atomic computed-cache entry, or the caller's own pre-start
// synchronization — so the plain reads of node payloads are race-free: a
// node is fully written before the edge that makes its Ref visible.
//
// The hot fields are laid out to keep views from invalidating each
// other's cache lines: each shard's read-mostly pointers (chunk
// directory, bucket array) sit on a line apart from its insert-hot mutex
// and count, every shard is padded to whole lines, and the table's
// per-insert node counter sits on a line apart from the computed-cache
// pointer that every apply step loads.
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

	// A chunk holds 256 16-byte nodes, 4 KiB: small tables, one chunk per
	// shard, stay light, and large ones take a directory entry per chunk.
	chunkBits = 8
	chunkSize = 1 << chunkBits
	chunkMask = chunkSize - 1

	// maxShardNodes bounds the per-shard local index so a node id (local
	// index plus shard tag) and its complement bit always fit in an int32 Ref.
	maxShardNodes = 1 << 26

	// cacheLine is the padding unit that keeps write-hot fields off the
	// lines of read-mostly ones (64 bytes on amd64 and most arm64 parts).
	cacheLine = 64
)

// node is one BDD node. The then (high) edge is always a regular
// (non-complemented) ref — the canonical complement-edge restriction —
// while the else (low) edge may carry the complement bit. The payload is
// immutable once published; next, the hash-chain link, changes only when
// the shard's bucket array grows. At 16 bytes a node never straddles a
// cache line (chunks are allocated 16-byte aligned), so one miss yields
// both the payload and the link a lookup needs.
type node struct {
	level int32
	low   Ref
	high  Ref
	next  atomic.Int32 // local index + 1 of the next node in the chain; 0 ends it
}

type nodeChunk [chunkSize]node

// shard is one lock stripe of the unique table. Bucket heads and chain
// links hold a local index plus one, so a zeroed array is empty; they are
// written only under mu (atomically once visible to readers) and read
// lock-free with atomic loads. Node payloads are written under mu before
// their local index is published and are read lock-free afterwards.
type shard struct {
	// Read on every lookup and node access; swapped only on growth.
	dir     atomic.Pointer[[]*nodeChunk]
	buckets atomic.Pointer[[]int32]
	_       [cacheLine - 16]byte

	// Written on every insert.
	mu    sync.Mutex
	count int32 // nodes stored in this shard
	_     [cacheLine - 12]byte
}

// node returns the payload of the local index (lock-free; the caller must
// hold a happens-before edge to the node's publication, which every
// legitimately obtained Ref provides).
func (s *shard) node(local int32) *node {
	d := *s.dir.Load()
	return &d[local>>chunkBits][local&chunkMask]
}

// find walks the hash chain that starts at head (a bucket head: local
// index plus one, 0 for an empty bucket) for (level, low, high) and
// returns the node's local index, or -1. Safe without s.mu: a walk that
// races a relink may miss a present node, never report an absent one.
func (s *shard) find(head int32, level int32, low, high Ref) int32 {
	if head == 0 {
		return -1
	}
	// Loaded after the head, the directory covers every node of the walk:
	// links only lead to lower indices.
	d := *s.dir.Load()
	for v := head; v != 0; {
		li := v - 1
		n := &d[li>>chunkBits][li&chunkMask]
		if n.level == level && n.low == low && n.high == high {
			return li
		}
		v = n.next.Load()
	}
	return -1
}

// table is the shared state of one BDD universe. The shards come first so
// they start where the allocation does, on a line boundary.
type table struct {
	shards [nShards]shard

	// Read on every apply step.
	cache atomic.Pointer[opCache]

	names   []string
	nameIdx map[string]int
	vars    []Ref // vars[i]: regular ref of the (x_i ? false : true) node, i.e. ¬x_i

	growMu sync.Mutex // serializes computed-cache growth
	noGrow bool       // test hook: pin the cache size

	// epoch counts in-place adoptions (GC). Views compare it against
	// their own satEpoch to invalidate per-view sat-count caches lazily.
	epoch atomic.Uint64
	views atomic.Int64

	_     [cacheLine]byte
	count atomic.Int64 // total nodes, terminals included; added to on every insert
	_     [cacheLine - 8]byte
}

func newTable(names []string, nameIdx map[string]int) *table {
	t := &table{names: names, nameIdx: nameIdx}
	for i := range t.shards {
		s := &t.shards[i]
		b := make([]int32, 64)
		s.buckets.Store(&b)
		empty := []*nodeChunk{}
		s.dir.Store(&empty)
	}
	// The single terminal node: id 0, shard 0, local 0. It represents the
	// constant false function (True is its complement edge) and is not
	// hashed into any bucket.
	s0 := &t.shards[0]
	ch := new(nodeChunk)
	ch[0].level = terminalLevel
	d := []*nodeChunk{ch}
	s0.dir.Store(&d)
	s0.count = 1
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
// to a regular high edge — and returns its regular Ref. The lookup runs
// lock-free; only a miss takes the shard mutex. limit > 0 arms the
// calling view's node watermark: the insert panics with ErrNodeLimit when
// the table has already reached it (checked after the lookup, so shared
// nodes keep resolving under a blown watermark and the panic fires only
// with the store consistent).
func (t *table) mkRaw(limit int, level int32, low, high Ref) Ref {
	h := nodeHash(level, low, high)
	tag := int32(h & shardMask)
	s := &t.shards[tag]
	b := *s.buckets.Load()
	li := s.find(atomic.LoadInt32(&b[(h>>shardBits)&uint32(len(b)-1)]), level, low, high)
	if li < 0 {
		li = t.insert(s, limit, h, level, low, high)
	}
	return Ref((li<<shardBits | tag) << 1)
}

// insert is mkRaw's locked path after a lock-free miss. It walks the
// chain again under s.mu, since another view may have inserted the node
// or a relink may have hidden it from the lock-free walk, and otherwise
// stores and publishes the node. It returns the node's local index.
func (t *table) insert(s *shard, limit int, h uint32, level int32, low, high Ref) int32 {
	s.mu.Lock()
	b := *s.buckets.Load()
	slot := (h >> shardBits) & uint32(len(b)-1)
	head := b[slot] // heads change only under s.mu
	if li := s.find(head, level, low, high); li >= 0 {
		s.mu.Unlock()
		return li
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
		// append may write the new chunk into spare capacity shared with
		// published directories; their readers never index past their
		// own length, and the longer header is published only after.
		nd := append(d, new(nodeChunk))
		s.dir.Store(&nd)
		d = nd
	}
	n := &d[local>>chunkBits][local&chunkMask]
	n.level, n.low, n.high = level, low, high
	n.next.Store(head)
	atomic.StoreInt32(&b[slot], local+1)
	s.count = local + 1
	if int(s.count) > len(b) {
		s.growLocked(b)
	}
	s.mu.Unlock()
	t.maybeGrowCache(t.count.Add(1))
	return local
}

// growLocked relinks every node into a bucket array twice the size of b,
// the current one, and then publishes it. Caller holds s.mu. Nodes are
// visited in index order and pushed onto the front of their new chain, so
// each link still points to a lower index; a link already right for the
// new chain is not rewritten. The new array is private until published,
// so its heads take plain stores: atomic ones there cost most of the
// relink, each a full fence around a cache miss.
func (s *shard) growLocked(b []int32) {
	nb := make([]int32, len(b)*2)
	mask := uint32(len(nb) - 1)
	d := *s.dir.Load()
	for li := int32(0); li < s.count; li++ {
		n := &d[li>>chunkBits][li&chunkMask]
		if n.level == terminalLevel {
			continue // the terminal is not bucketed
		}
		slot := (nodeHash(n.level, n.low, n.high) >> shardBits) & mask
		if n.next.Load() != nb[slot] {
			n.next.Store(nb[slot])
		}
		nb[slot] = li + 1
	}
	s.buckets.Store(&nb)
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
// node count, variable order and variable nodes. The computed cache is
// reset (its entries name ids of the replaced store)
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
		d.count = s.count
		d.buckets.Store(s.buckets.Load())
		d.dir.Store(s.dir.Load())
		d.mu.Unlock()
	}
	t.count.Store(src.count.Load())
	t.cache.Store(newOpCache(t.cache.Load().bits))
	t.epoch.Add(1)
}

// opCache is the computed table: one direct-mapped, lossy cache of
// operation results keyed by up to four Refs. ITE triples (And/Or/Xor are
// normalized ITE triples) fill three key slots and put noRef in the
// fourth; DiffAnd, the only four-operand operation, fills all four;
// BooleanDiff puts its operand and variable level in the first two and
// noRef in both others. No operation issues noRef as an operand, so the
// three key kinds never alias. Entries are seqlock-validated: the
// sequence word is 0 when empty, odd while a writer is mid-update, and
// advances by two per publish, so a reader that sees the same even
// sequence before and after loading the payload words has a consistent
// entry. Writers skip the slot (the cache is lossy) rather than wait.
type opCache struct {
	bits    uint
	mask    uint32
	entries []cacheEnt
}

type cacheEnt struct {
	seq atomic.Uint32
	res atomic.Uint32
	a   atomic.Uint64 // k0<<32 | k1
	b   atomic.Uint64 // k2<<32 | k3
}

// noRef fills the key slots an operation does not use. Refs are
// non-negative, so no operand ever equals it.
const noRef = Ref(-1)

func newOpCache(bits uint) *opCache {
	return &opCache{bits: bits, mask: uint32(1)<<bits - 1, entries: make([]cacheEnt, 1<<bits)}
}

func pair(x, y Ref) uint64 { return uint64(uint32(x))<<32 | uint64(uint32(y)) }

func keyHash(k0, k1, k2, k3 Ref) uint32 {
	x := uint32(k0)*0x9e3779b1 ^ uint32(k1)*0x85ebca6b ^ uint32(k2)*0xc2b2ae35 ^ uint32(k3)*0x27d4eb2f
	x ^= x >> 15
	return x
}

func (c *opCache) get(k0, k1, k2, k3 Ref) (Ref, bool) {
	e := &c.entries[keyHash(k0, k1, k2, k3)&c.mask]
	s1 := e.seq.Load()
	if s1 == 0 || s1&1 != 0 {
		return 0, false
	}
	a, b, r := e.a.Load(), e.b.Load(), e.res.Load()
	if e.seq.Load() != s1 || a != pair(k0, k1) || b != pair(k2, k3) {
		return 0, false
	}
	return Ref(int32(r)), true
}

func (c *opCache) put(k0, k1, k2, k3, res Ref) {
	e := &c.entries[keyHash(k0, k1, k2, k3)&c.mask]
	s := e.seq.Load()
	if s&1 != 0 || !e.seq.CompareAndSwap(s, s+1) {
		return // a writer owns the slot; drop the insert
	}
	e.a.Store(pair(k0, k1))
	e.b.Store(pair(k2, k3))
	e.res.Store(uint32(res))
	e.seq.Store(s + 2)
}
