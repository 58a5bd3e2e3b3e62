package bdd_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/diffprop"
)

// refSift is the serial sifting loop: every candidate position of one
// variable is rebuilt and compared in turn, and the first strictly
// smaller size seen wins. It is the oracle Sift's concurrent candidate
// evaluation must reproduce exactly.
func refSift(m *bdd.Manager, roots []bdd.Ref, maxPasses int) (*bdd.Manager, []bdd.Ref, int) {
	if maxPasses < 1 {
		maxPasses = 1
	}
	cur := bdd.New(m.Names()...)
	curRoots := m.Transfer(cur, roots...)
	best := cur.TotalSize(curRoots...)
	n := m.NumVars()
	for pass := 0; pass < maxPasses; pass++ {
		improved := false
		for _, v := range cur.Names() {
			without := make([]string, 0, n-1)
			curPos := -1
			for i, name := range cur.Names() {
				if name == v {
					curPos = i
					continue
				}
				without = append(without, name)
			}
			orderAt := func(pos int) []string {
				order := append([]string(nil), without[:pos]...)
				order = append(order, v)
				return append(order, without[pos:]...)
			}
			bestPos, bestSize := curPos, cur.TotalSize(curRoots...)
			for pos := 0; pos < n; pos++ {
				if pos == curPos {
					continue
				}
				cand := bdd.New(orderAt(pos)...)
				if size := cand.TotalSize(cur.Transfer(cand, curRoots...)...); size < bestSize {
					bestSize, bestPos = size, pos
				}
			}
			if bestPos != curPos {
				next := bdd.New(orderAt(bestPos)...)
				curRoots = cur.Transfer(next, curRoots...)
				cur = next
				best = bestSize
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return cur, curRoots, best
}

// checkSiftMatchesRef sifts roots with Sift and with refSift and fails
// unless both reach the same order and the same size.
func checkSiftMatchesRef(t *testing.T, what string, m *bdd.Manager, roots []bdd.Ref, passes int) {
	t.Helper()
	want, _, wantSize := refSift(m, roots, passes)
	got, _, gotSize := m.Sift(roots, passes)
	if gotSize != wantSize || !reflect.DeepEqual(got.Names(), want.Names()) {
		t.Fatalf("%s: Sift reached %d nodes under %v, the serial loop %d under %v",
			what, gotSize, got.Names(), wantSize, want.Names())
	}
}

// TestSiftMatchesSerialReference checks that evaluating candidate
// positions concurrently changes nothing: on the output and the all-net
// good functions of three catalog circuits, and on random small BDDs with
// several roots, Sift returns the serial loop's order and size.
func TestSiftMatchesSerialReference(t *testing.T) {
	for _, name := range []string{"c95s", "alu181", "c432s"} {
		c := circuits.MustGet(name)
		e, err := diffprop.New(c, &diffprop.Options{Order: diffprop.DFSOrder(c.Decompose2())})
		if err != nil {
			t.Fatal(err)
		}
		nets := make([]bdd.Ref, e.Circuit.NumNets())
		for i := range nets {
			nets[i] = e.Good(i)
		}
		outs := make([]bdd.Ref, len(e.Circuit.Outputs))
		for i, o := range e.Circuit.Outputs {
			outs[i] = nets[o]
		}
		checkSiftMatchesRef(t, name+" outputs", e.Manager(), outs, 4)
		checkSiftMatchesRef(t, name+" all nets", e.Manager(), nets, 1)
	}

	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(5)
		names := make([]string, n)
		for i := range names {
			names[i] = string(rune('a' + i))
		}
		rng.Shuffle(n, func(i, j int) { names[i], names[j] = names[j], names[i] })
		m := bdd.New(names...)
		pool := []bdd.Ref{bdd.True}
		for i := 0; i < n; i++ {
			pool = append(pool, m.Var(i))
		}
		for k := 0; k < 4*n; k++ {
			f, g := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
			switch rng.Intn(3) {
			case 0:
				pool = append(pool, m.And(f, m.Not(g)))
			case 1:
				pool = append(pool, m.Or(f, g))
			default:
				pool = append(pool, m.Xor(f, g))
			}
		}
		checkSiftMatchesRef(t, "random", m, pool[len(pool)-1-rng.Intn(3):], 1+rng.Intn(3))
	}
}
