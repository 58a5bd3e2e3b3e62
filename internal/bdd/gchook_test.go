package bdd

import "testing"

func TestGCHookFiresOncePerGC(t *testing.T) {
	m := NewAnon(16)
	live := buildHeavy(m, 8)
	buildHeavy(m, 64) // garbage
	var fired []GCResult
	m.SetGCHook(func(res GCResult) { fired = append(fired, res) })
	_, res := m.GC([]Ref{live})
	if len(fired) != 1 {
		t.Fatalf("hook fired %d times for one GC, want 1", len(fired))
	}
	if fired[0] != res {
		t.Fatalf("hook saw %+v, GC returned %+v", fired[0], res)
	}
	if fired[0].Reclaimed() <= 0 {
		t.Fatalf("hook result reclaimed %d, want > 0", fired[0].Reclaimed())
	}

	// Disarming stops the callbacks.
	m.SetGCHook(nil)
	m.GC([]Ref{live})
	if len(fired) != 1 {
		t.Fatalf("disarmed hook still fired (%d calls)", len(fired))
	}
}

func TestTableLoad(t *testing.T) {
	m := NewAnon(16)
	buildHeavy(m, 32)
	nodes, buckets := m.TableLoad()
	if nodes <= 0 || buckets <= 0 {
		t.Fatalf("TableLoad() = (%d, %d), want positive counts", nodes, buckets)
	}
	if got := int64(m.NodeCount()); nodes != got {
		t.Fatalf("TableLoad nodes = %d, NodeCount = %d", nodes, got)
	}
}
