package diffprop

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/netlist"
)

// outputSize is the shared node count of the engine's output good
// functions.
func outputSize(e *Engine) int {
	outs := make([]bdd.Ref, len(e.Circuit.Outputs))
	for i, o := range e.Circuit.Outputs {
		outs[i] = e.Good(o)
	}
	return e.Manager().TotalSize(outs...)
}

// TestOrderTableCoversCatalog pins the committed order table to the
// catalog: every circuit has an entry, the entry is a permutation of the
// working circuit's inputs, New adopts it when no order is given, and its
// output functions are no larger than under DFSOrder.
func TestOrderTableCoversCatalog(t *testing.T) {
	if len(orderTable) != len(circuits.Names()) {
		t.Fatalf("order table has %d entries for %d catalog circuits", len(orderTable), len(circuits.Names()))
	}
	for _, name := range circuits.Names() {
		c := circuits.MustGet(name)
		entry, ok := orderTable[name]
		if !ok {
			t.Fatalf("%s: no order table entry", name)
		}
		want := c.Decompose2().InputNames()
		got := append([]string(nil), entry...)
		sort.Strings(want)
		sort.Strings(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: table entry %v is not a permutation of the inputs %v", name, entry, want)
		}
		e, err := New(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if names := e.Manager().Names(); !reflect.DeepEqual(names, entry) {
			t.Fatalf("%s: New(c, nil) built order %v, want the table's %v", name, names, entry)
		}
		dfs, err := New(c, &Options{Order: DFSOrder(e.Circuit)})
		if err != nil {
			t.Fatal(err)
		}
		if table, base := outputSize(e), outputSize(dfs); table > base {
			t.Fatalf("%s: output functions take %d nodes under the table, %d under DFSOrder", name, table, base)
		}
	}
}

// TestOrderTableOnlyForItsCircuits checks that a netlist outside the table
// keeps DFSOrder: a foreign name, a clone of a catalog circuit with an
// added input, and a circuit that shares a catalog name but not its inputs.
func TestOrderTableOnlyForItsCircuits(t *testing.T) {
	renamed := circuits.MustGet("alu181").Clone()
	renamed.Name = "alu181-from-bench"

	grown := circuits.MustGet("c95s").Clone()
	extra := grown.AddInput("extra")
	grown.MarkOutput(grown.AddGate("extra_out", netlist.And, extra, grown.Outputs[0]))

	impostor := netlist.New("c17")
	a, b := impostor.AddInput("a"), impostor.AddInput("b")
	impostor.MarkOutput(impostor.AddGate("z", netlist.Nand, a, b))

	for _, c := range []*netlist.Circuit{renamed, grown, impostor} {
		e, err := New(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := e.Manager().Names(), DFSOrder(e.Circuit); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: New(c, nil) built order %v, want DFSOrder %v", c.Name, got, want)
		}
	}

	// An explicit order still wins over the table.
	c := circuits.MustGet("c95s")
	natural := c.InputNames()
	e, err := New(c, &Options{Order: natural})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Manager().Names(); !reflect.DeepEqual(got, natural) {
		t.Fatalf("Options.Order %v was not used: built %v", natural, got)
	}
}
