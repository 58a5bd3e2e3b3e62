package bdd

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// checkCanonical verifies the unique-table invariants of m's table, which
// must be quiescent: every stored node hashes to the shard that holds it,
// sits on exactly one chain — the one of its own bucket — with links
// leading only to lower indices, and no (level, low, high) triple is
// stored twice.
func checkCanonical(t *testing.T, m *Manager) {
	t.Helper()
	type triple struct {
		level     int32
		low, high Ref
	}
	seen := make(map[triple]int32)
	for si := range m.t.shards {
		s := &m.t.shards[si]
		b := *s.buckets.Load()
		mask := uint32(len(b) - 1)
		onChain := make([]bool, s.count)
		for slot := range b {
			prev := int32(maxShardNodes)
			for v := b[slot]; v != 0; {
				li := v - 1
				if li >= prev || li >= s.count {
					t.Fatalf("shard %d slot %d: link %d -> %d does not lead to a lower stored index",
						si, slot, prev, li)
				}
				prev = li
				onChain[li] = true
				n := s.node(li)
				h := nodeHash(n.level, n.low, n.high)
				if int(h&shardMask) != si || (h>>shardBits)&mask != uint32(slot) {
					t.Fatalf("shard %d local %d is chained in slot %d, its hash places it in shard %d slot %d",
						si, li, slot, h&shardMask, (h>>shardBits)&mask)
				}
				id := li<<shardBits | int32(si)
				k := triple{n.level, n.low, n.high}
				if other, dup := seen[k]; dup {
					t.Fatalf("triple %+v stored twice: ids %d and %d", k, other, id)
				}
				seen[k] = id
				v = n.next.Load()
			}
		}
		for li, ok := range onChain {
			if !ok && s.node(int32(li)).level != terminalLevel {
				t.Fatalf("shard %d local %d is stored but not reachable from its bucket", si, li)
			}
		}
	}
	if got, want := len(seen)+1, m.NodeCount(); got != want {
		t.Fatalf("chains hold %d nodes plus the terminal, NodeCount = %d", got-1, want)
	}
}

// TestTableLayout pins the cache-line layout the lock-free lookup relies
// on for speed: 16-byte nodes, shards padded to whole lines with their
// read-mostly pointers on a line apart from the insert mutex, and the
// table's node counter on a line apart from the computed-cache pointer.
func TestTableLayout(t *testing.T) {
	var n node
	var s shard
	var tb table
	if unsafe.Sizeof(n) != 16 {
		t.Errorf("node is %d bytes, want 16", unsafe.Sizeof(n))
	}
	if unsafe.Sizeof(s)%cacheLine != 0 {
		t.Errorf("shard is %d bytes, not a whole number of %d-byte lines", unsafe.Sizeof(s), cacheLine)
	}
	if unsafe.Offsetof(s.buckets) >= cacheLine || unsafe.Offsetof(s.mu) < cacheLine {
		t.Errorf("shard.buckets at offset %d and shard.mu at %d share a line",
			unsafe.Offsetof(s.buckets), unsafe.Offsetof(s.mu))
	}
	if unsafe.Offsetof(tb.shards) != 0 {
		t.Errorf("shards at table offset %d, want 0", unsafe.Offsetof(tb.shards))
	}
	if d := unsafe.Offsetof(tb.count) - unsafe.Offsetof(tb.cache); d < cacheLine {
		t.Errorf("table.count is %d bytes after table.cache, want at least a line", d)
	}
	if d := unsafe.Sizeof(tb) - unsafe.Offsetof(tb.count); d < cacheLine {
		t.Errorf("table.count is %d bytes from the table's end, want at least a line", d)
	}
}

// TestShareViewsOneTable checks the basic sharing contract: views created
// with Share operate on the same node store, so canonical functions built
// on different views are the very same Ref.
func TestShareViewsOneTable(t *testing.T) {
	m := NewAnon(8)
	if m.Views() != 1 {
		t.Fatalf("fresh manager has %d views, want 1", m.Views())
	}
	v := m.Share()
	if m.Views() != 2 || v.Views() != 2 {
		t.Fatalf("after Share views = %d/%d, want 2/2", m.Views(), v.Views())
	}
	f := m.Or(m.And(m.Var(0), m.Var(1)), m.Xor(m.Var(2), m.Var(3)))
	g := v.Or(v.And(v.Var(0), v.Var(1)), v.Xor(v.Var(2), v.Var(3)))
	if f != g {
		t.Fatalf("same function on two views got distinct refs %v vs %v", f, g)
	}
	if m.NodeCount() != v.NodeCount() {
		t.Fatal("views disagree on the shared node count")
	}
	// Budgets are per-view: arming one view must not meter the other.
	v.SetNodeLimit(1)
	if got := m.NodeLimit(); got != 0 {
		t.Fatalf("node limit leaked across views: %d", got)
	}
	// Stats are per-view too: work on m must not move v's counters.
	vs := v.CacheStats()
	m.And(f, m.Var(4))
	if v.CacheStats() != vs {
		t.Fatal("cache stats aliased across views")
	}
}

// TestConcurrentUniqueTableStress hammers one shared table from many
// goroutines at once — concurrent mk/ite on overlapping subfunctions —
// and then checks canonicity survived: every worker must end up with the
// identical Ref for the common function, and the function must still
// evaluate correctly. Run under -race this doubles as the memory-model
// check for the lock-striped unique table and the seqlock op caches.
func TestConcurrentUniqueTableStress(t *testing.T) {
	const (
		workers = 8
		vars    = 14
		rounds  = 60
	)
	m := NewAnon(vars)
	// Pin a small cache so growth, eviction, and collision paths all run.
	m.setCacheBits(minCacheBits)
	views := make([]*Manager, workers)
	for w := range views {
		views[w] = m.Share()
	}
	final := make([]Ref, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := views[w]
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			// Private per-worker churn: random minterm ORs, different per
			// worker, so the table sees disjoint and overlapping inserts.
			acc := False
			for r := 0; r < rounds; r++ {
				cube := True
				for i := 0; i < vars; i++ {
					if rng.Intn(2) == 1 {
						cube = v.And(cube, v.Var(i))
					} else {
						cube = v.And(cube, v.NVar(i))
					}
				}
				acc = v.Or(acc, cube)
			}
			// The common function every worker must agree on.
			parity := False
			for i := 0; i < vars; i++ {
				parity = v.Xor(parity, v.Var(i))
			}
			final[w] = v.And(parity, v.Or(acc, v.Not(acc)))
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if final[w] != final[0] {
			t.Fatalf("worker %d got ref %v for the common function, worker 0 got %v",
				w, final[w], final[0])
		}
	}
	// acc ∨ ¬acc is True, so the common function is plain parity.
	want := False
	for i := 0; i < vars; i++ {
		want = m.Xor(want, m.Var(i))
	}
	if final[0] != want {
		t.Fatal("stressed table lost canonicity for parity")
	}
	for trial := 0; trial < 64; trial++ {
		a := make([]bool, vars)
		odd := false
		for i := range a {
			a[i] = trial>>uint(i%6)&1 == 1
			if a[i] {
				odd = !odd
			}
		}
		if m.Eval(final[0], a) != odd {
			t.Fatal("parity evaluates wrong after concurrent stress")
		}
	}
	checkCanonical(t, m)
}

// TestUniqueTableLookupDuringRehash races lock-free lookups against bucket
// growth: several views keep asking for nodes that already exist and must
// get back the very same Ref, while another view inserts enough fresh
// nodes into every shard to double its bucket array several times. A
// lookup that strays into a chain being relinked must fall back to the
// locked path, not insert a duplicate or return a wrong node.
func TestUniqueTableLookupDuringRehash(t *testing.T) {
	const (
		vars    = 16
		pool    = 400
		fresh   = 60000
		readers = 3
	)
	m := NewAnon(vars)
	type want struct {
		level     int32
		low, high Ref
		ref       Ref
	}
	rng := rand.New(rand.NewSource(7))
	existing := make([]want, 0, pool)
	for len(existing) < pool {
		level := int32(rng.Intn(vars - 2))
		low := m.Var(int(level)+1+rng.Intn(vars-int(level)-1)) ^ Ref(rng.Intn(2))
		high := m.Var(int(level) + 1 + rng.Intn(vars-int(level)-1))
		if low == high {
			continue
		}
		existing = append(existing, want{level, low, high, m.mk(level, low, high)})
	}
	before := make([]int, nShards)
	for i := range m.t.shards {
		before[i] = len(*m.t.shards[i].buckets.Load())
	}

	var done atomic.Bool
	var wg sync.WaitGroup
	errs := make(chan string, readers)
	for r := 0; r < readers; r++ {
		v := m.Share()
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				last := done.Load()
				for i := range existing {
					e := &existing[(i+r*pool/readers)%pool]
					if got := v.mk(e.level, e.low, e.high); got != e.ref {
						errs <- "existing node looked up as a different ref during rehash"
						return
					}
				}
				if last {
					return
				}
			}
		}(r)
	}
	w := m.Share()
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		// Each node's low edge is the node made just before it, so every
		// triple is new.
		prev := w.Var(0)
		for i := 0; i < fresh; i++ {
			prev = w.mk(int32(1+i%(vars-1)), prev, False)
		}
	}()
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	for i := range m.t.shards {
		if after := len(*m.t.shards[i].buckets.Load()); after < before[i]<<3 {
			t.Fatalf("shard %d grew its buckets %d -> %d, want at least three doublings", i, before[i], after)
		}
	}
	checkCanonical(t, m)
}

// TestGCWithMultipleViewsHoldingRoots runs an in-place GC while several
// views hold live roots, as campaign workers do between faults. The
// collection happens at a quiescent point (no concurrent builders — the
// engine enforces that with its analysis lock); afterwards every view
// must see the remapped roots as the same canonical functions, and stale
// per-view sat caches must be dropped, not misread.
func TestGCWithMultipleViewsHoldingRoots(t *testing.T) {
	m := NewAnon(10)
	v1, v2 := m.Share(), m.Share()
	f := m.Or(m.And(m.Var(0), m.Var(1)), m.And(m.Var(2), m.Var(3)))
	g := v1.Xor(v1.Var(4), v1.Var(5))
	h := v2.And(v2.Or(v2.Var(6), v2.Var(7)), v2.Var(8))
	wantG := v1.SatCount(g) // prime v1's sat cache so adoption must invalidate it
	// Garbage: a pile of functions nobody keeps.
	for i := 0; i < 9; i++ {
		m.And(m.Xor(m.Var(i), m.Var(i+1)), m.Var(0))
	}
	before := m.NodeCount()
	epoch := v1.TableEpoch()
	roots, res := m.GC([]Ref{f, g, h})
	if m.NodeCount() >= before || res.Reclaimed() <= 0 {
		t.Fatalf("GC reclaimed nothing: %d -> %d", before, m.NodeCount())
	}
	if v1.TableEpoch() == epoch {
		t.Fatal("in-place adoption must bump the table epoch")
	}
	// All views see the remapped roots as the same functions.
	if rg := v1.Xor(v1.Var(4), v1.Var(5)); rg != roots[1] {
		t.Fatalf("view 1 rebuilt g as %v, GC root is %v", rg, roots[1])
	}
	if rh := v2.And(v2.Or(v2.Var(6), v2.Var(7)), v2.Var(8)); rh != roots[2] {
		t.Fatalf("view 2 rebuilt h as %v, GC root is %v", rh, roots[2])
	}
	// v1's sat cache predates the adoption; counting again must detect the
	// epoch change and recompute, not serve a stale id.
	if got := v1.SatCount(roots[1]); got.Cmp(wantG) != 0 {
		t.Fatalf("sat count after GC %v, want %v", got, wantG)
	}
	if got := v2.SatCount(roots[2]); got.Sign() == 0 {
		t.Fatal("sat count of live root is zero after GC")
	}
}

// TestReduceUnderSiftWithViews checks that a recovery-ladder sift (which
// rebuilds the shared table under a new variable order and adopts it in
// place) leaves sibling views consistent: they observe the epoch bump and
// agree on the remapped roots.
func TestReduceUnderSiftWithViews(t *testing.T) {
	const k = 5
	names := make([]string, 0, 2*k)
	for i := 0; i < k; i++ {
		names = append(names, "a"+string(rune('0'+i)))
	}
	for i := 0; i < k; i++ {
		names = append(names, "b"+string(rune('0'+i)))
	}
	m := New(names...)
	v := m.Share()
	f := False
	for i := 0; i < k; i++ {
		f = m.Or(f, m.And(m.Var(i), m.Var(k+i)))
	}
	epoch := v.TableEpoch()
	roots, res := m.ReduceUnder([]Ref{f}, 1, 4)
	if !res.Sifted {
		t.Fatal("watermark 1 must force a sift")
	}
	if v.TableEpoch() == epoch {
		t.Fatal("sift adoption must bump the epoch for sibling views")
	}
	// The sibling view rebuilds the function under the new order and must
	// land on the same ref.
	g := False
	for i := 0; i < k; i++ {
		g = v.Or(g, v.And(v.VarNamed("a"+string(rune('0'+i))), v.VarNamed("b"+string(rune('0'+i)))))
	}
	if g != roots[0] {
		t.Fatalf("sibling view rebuilt %v, sift returned %v", g, roots[0])
	}
	if got := m.Size(roots[0]); got != 2*k+1 {
		t.Fatalf("sifted size %d, want optimum %d", got, 2*k+1)
	}
}

// BenchmarkSharedTableParallel builds overlapping random functions on
// Share views of one table from every benchmark goroutine: each operation
// rebuilds one of a fixed pool of sums of cubes. The computed cache is
// pinned small, so most steps miss it and reach the unique table, where
// after warm-up nearly every call finds an existing node — the path views
// share most. Compare ns/op across -cpu 1,2: a cost that rises with more
// CPUs means the views contend.
func BenchmarkSharedTableParallel(b *testing.B) {
	const (
		vars  = 16
		pool  = 256
		cubes = 6
	)
	rng := rand.New(rand.NewSource(1))
	lits := make([][cubes][vars]int8, pool) // lits[f][c][i]: x_i in cube c of f, 1 positive, -1 negative, 0 absent
	for f := range lits {
		for c := range lits[f] {
			for i := range lits[f][c] {
				lits[f][c][i] = int8(rng.Intn(3) - 1)
			}
		}
	}
	m := NewAnon(vars)
	m.setCacheBits(minCacheBits)
	var seed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		v := m.Share()
		r := rand.New(rand.NewSource(seed.Add(1)))
		for pb.Next() {
			fn := &lits[r.Intn(pool)]
			acc := False
			for c := range fn {
				cube := True
				for i := vars - 1; i >= 0; i-- {
					switch fn[c][i] {
					case 1:
						cube = v.And(v.Var(i), cube)
					case -1:
						cube = v.And(v.NVar(i), cube)
					}
				}
				acc = v.Or(acc, cube)
			}
		}
	})
}
