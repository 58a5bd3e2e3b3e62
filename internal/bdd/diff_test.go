package bdd

import (
	"math/rand"
	"sync"
	"testing"
)

// diffOracle is the Table 1 composition DiffAnd fuses: three Ands and
// two Xors.
func diffOracle(m *Manager, fa, fb, da, db Ref) Ref {
	t := m.Xor(m.And(fa, db), m.And(fb, da))
	return m.Xor(t, m.And(da, db))
}

// diffPool returns random functions over m's variables plus both
// constants; quadruples drawn from it with repetition and random
// complement bits hit every terminal rule and the recursion.
func diffPool(m *Manager, rng *rand.Rand, funcs, ops int) []Ref {
	pool := []Ref{False, True}
	for i := 0; i < funcs; i++ {
		pool = append(pool, randomFunc(m, rng, m.NumVars(), ops))
	}
	return pool
}

func drawQuad(rng *rand.Rand, pool []Ref) [4]Ref {
	var q [4]Ref
	for i := range q {
		q[i] = pool[rng.Intn(len(pool))] ^ Ref(rng.Intn(2))
	}
	return q
}

func TestDiffAndMatchesComposition(t *testing.T) {
	m := NewAnon(8)
	rng := rand.New(rand.NewSource(11))
	pool := diffPool(m, rng, 12, 30)
	for trial := 0; trial < 2000; trial++ {
		q := drawQuad(rng, pool)
		got := m.DiffAnd(q[0], q[1], q[2], q[3])
		if want := diffOracle(m, q[0], q[1], q[2], q[3]); got != want {
			t.Fatalf("trial %d: DiffAnd%v = %v, composition = %v", trial, q, got, want)
		}
		// The definition the identity comes from: good AND ⊕ faulty AND.
		fa, fb, da, db := q[0], q[1], q[2], q[3]
		if def := m.Xor(m.And(fa, fb), m.And(m.Xor(fa, da), m.Xor(fb, db))); got != def {
			t.Fatalf("trial %d: DiffAnd%v disagrees with good ⊕ faulty", trial, q)
		}
		// Swapping the operand pairs is the same gate.
		if sw := m.DiffAnd(fb, fa, db, da); sw != got {
			t.Fatalf("trial %d: DiffAnd not symmetric in its operand pairs", trial)
		}
	}
}

func TestDiffAndTinyCache(t *testing.T) {
	for _, bits := range []uint{1, 2, 5} {
		m := NewAnon(8)
		m.setCacheBits(bits)
		rng := rand.New(rand.NewSource(int64(bits)))
		pool := diffPool(m, rng, 10, 30)
		for trial := 0; trial < 500; trial++ {
			q := drawQuad(rng, pool)
			if got, want := m.DiffAnd(q[0], q[1], q[2], q[3]), diffOracle(m, q[0], q[1], q[2], q[3]); got != want {
				t.Fatalf("cache bits %d, trial %d: DiffAnd%v = %v, composition = %v", bits, trial, q, got, want)
			}
		}
	}
}

// TestDiffAndCacheHitsAndCharges checks the kernel's bookkeeping: a
// repeated call (in either operand-pair order) is one charged op served
// by the cache, counted as an Apply hit.
func TestDiffAndCacheHitsAndCharges(t *testing.T) {
	m := NewAnon(10)
	rng := rand.New(rand.NewSource(3))
	fa, fb := randomFunc(m, rng, 10, 40), randomFunc(m, rng, 10, 40)
	da, db := randomFunc(m, rng, 10, 40), randomFunc(m, rng, 10, 40)
	m.SetBudget(0)
	r := m.DiffAnd(fa, fb, da, db)
	if m.OpsCharged() < 2 || m.CacheStats().ApplyMisses == 0 {
		t.Fatalf("a fresh DiffAnd charged %d ops and %d misses; the operands are too simple",
			m.OpsCharged(), m.CacheStats().ApplyMisses)
	}
	for _, q := range [][4]Ref{{fa, fb, da, db}, {fb, fa, db, da}} {
		before := m.CacheStats()
		m.SetBudget(0)
		if got := m.DiffAnd(q[0], q[1], q[2], q[3]); got != r {
			t.Fatal("repeated DiffAnd changed its result")
		}
		after := m.CacheStats()
		if m.OpsCharged() != 1 || after.ApplyHits != before.ApplyHits+1 || after.ApplyMisses != before.ApplyMisses {
			t.Fatalf("repeated DiffAnd: %d ops, %+v -> %+v; want one op and one Apply hit",
				m.OpsCharged(), before, after)
		}
	}
}

// TestDiffAndAcrossGC warms the DiffAnd cache, collects the table in
// place (which renumbers every node) and checks that no stale entry is
// served to the remapped operands.
func TestDiffAndAcrossGC(t *testing.T) {
	m := NewAnon(10)
	rng := rand.New(rand.NewSource(21))
	pool := diffPool(m, rng, 10, 40)
	quads := make([][4]Ref, 300)
	for i := range quads {
		quads[i] = drawQuad(rng, pool)
		m.DiffAnd(quads[i][0], quads[i][1], quads[i][2], quads[i][3])
	}
	for round := 0; round < 3; round++ {
		// Garbage shifts the ids the collection hands out next.
		buildHeavy(m, 4+round)
		roots, _ := m.GC(pool)
		remap := make(map[Ref]Ref, 2*len(pool))
		for i, r := range pool {
			remap[r], remap[r^1] = roots[i], roots[i]^1
		}
		pool = roots
		for i, q := range quads {
			for j := range q {
				q[j] = remap[q[j]]
			}
			quads[i] = q
			if got, want := m.DiffAnd(q[0], q[1], q[2], q[3]), diffOracle(m, q[0], q[1], q[2], q[3]); got != want {
				t.Fatalf("round %d, quad %d: DiffAnd after GC = %v, composition = %v", round, i, got, want)
			}
		}
	}
}

// TestDiffAndConcurrentViews runs the kernel from several Share views at
// once over one table and one DiffAnd cache, pinned small so concurrent
// writers collide on slots. Run under -race it checks the seqlock cache.
func TestDiffAndConcurrentViews(t *testing.T) {
	const workers = 4
	m := NewAnon(12)
	m.setCacheBits(minCacheBits)
	rng := rand.New(rand.NewSource(5))
	pool := diffPool(m, rng, 12, 40)
	quads := make([][4]Ref, 400)
	want := make([]Ref, len(quads))
	for i := range quads {
		quads[i] = drawQuad(rng, pool)
		want[i] = diffOracle(m, quads[i][0], quads[i][1], quads[i][2], quads[i][3])
	}
	views := make([]*Manager, workers)
	for w := range views {
		views[w] = m.Share()
	}
	errs := make(chan string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := views[w]
			order := rand.New(rand.NewSource(int64(100 + w))).Perm(len(quads))
			for _, i := range order {
				q := quads[i]
				if got := v.DiffAnd(q[0], q[1], q[2], q[3]); got != want[i] {
					errs <- "a view computed a DiffAnd that disagrees with the composition"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestDiffAndAbortThenRetry aborts the kernel mid-recursion with each
// resource sentinel, then recovers the way diffprop.Engine.Recover does
// (disarm, collect in place around the operands) and checks the table is
// usable and the retry gives the function an unaborted twin computed.
func TestDiffAndAbortThenRetry(t *testing.T) {
	build := func() (*Manager, [4]Ref) {
		m := NewAnon(14)
		rng := rand.New(rand.NewSource(8))
		var q [4]Ref
		for i := range q {
			q[i] = randomFunc(m, rng, 14, 60)
		}
		return m, q
	}
	twin, tq := build()
	base := twin.NodeCount()
	twin.SetBudget(0)
	want := twin.DiffAnd(tq[0], tq[1], tq[2], tq[3])
	ops, grown := twin.OpsCharged(), twin.NodeCount()-base
	if ops < 20 || grown < 4 {
		t.Fatalf("reference DiffAnd charged %d ops and built %d nodes; too small to abort midway", ops, grown)
	}
	arms := []struct {
		name string
		arm  func(m *Manager)
	}{
		{"budget", func(m *Manager) { m.SetBudget(ops / 2) }},
		{"chaos", func(m *Manager) { m.SetBudget(0); m.SetChaosAbort(ops/2, ErrNodeLimit) }},
		{"nodelimit", func(m *Manager) { m.SetNodeLimit(m.NodeCount() + grown/2) }},
	}
	for _, a := range arms {
		t.Run(a.name, func(t *testing.T) {
			m, q := build()
			a.arm(m)
			if err := recoverSentinel(t, func() { m.DiffAnd(q[0], q[1], q[2], q[3]) }); err == nil {
				t.Fatal("the armed bound did not abort DiffAnd")
			}
			m.ClearBudget()
			m.SetNodeLimit(0)
			roots, _ := m.GC(q[:])
			got := m.DiffAnd(roots[0], roots[1], roots[2], roots[3])
			if got != diffOracle(m, roots[0], roots[1], roots[2], roots[3]) {
				t.Fatal("retry after recovery disagrees with the composition")
			}
			if !equalFunctions(m, got, twin, want) {
				t.Fatal("retry after recovery differs from the unaborted result")
			}
		})
	}
}

// FuzzDiffAnd checks the kernel against the Table 1 composition on
// operands built from the fuzz input: each byte pair combines two pool
// members, and the last four pool entries (complemented by the first
// byte's low bits) are the operands.
func FuzzDiffAnd(f *testing.F) {
	f.Add([]byte{0x00, 0x01})
	f.Add([]byte{0x0f, 0x42, 0x87, 0xc3, 0x15, 0x26, 0x9a, 0x5b})
	f.Add([]byte{0x41, 0x02, 0x83, 0x04, 0xc5, 0x06, 0x47, 0x88, 0x09, 0xca})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 64 {
			data = data[:64]
		}
		m := NewAnon(6)
		pool := []Ref{False, True}
		for i := 0; i < m.NumVars(); i++ {
			pool = append(pool, m.Var(i))
		}
		for k := 0; k+1 < len(data); k += 2 {
			a, b := pool[int(data[k]&0x3f)%len(pool)], pool[int(data[k+1])%len(pool)]
			switch data[k] >> 6 {
			case 0:
				pool = append(pool, m.And(a, b))
			case 1:
				pool = append(pool, m.Or(a, b))
			case 2:
				pool = append(pool, m.Xor(a, b))
			default:
				pool = append(pool, m.And(a, m.Not(b)))
			}
		}
		var flip byte
		if len(data) > 0 {
			flip = data[0]
		}
		var q [4]Ref
		for i := range q {
			q[i] = pool[len(pool)-1-i] ^ Ref(flip>>uint(i)&1)
		}
		if got, want := m.DiffAnd(q[0], q[1], q[2], q[3]), diffOracle(m, q[0], q[1], q[2], q[3]); got != want {
			t.Fatalf("DiffAnd%v = %v, composition = %v", q, got, want)
		}
	})
}
