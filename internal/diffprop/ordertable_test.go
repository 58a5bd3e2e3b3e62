package diffprop_test

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bdd"
	"repro/internal/circuits"
	"repro/internal/diffprop"
	"repro/internal/netlist"
)

// outputSize is the shared node count of the engine's output good
// functions.
func outputSize(e *diffprop.Engine) int {
	return e.Manager().TotalSize(outputs(e)...)
}

// outputs returns the engine's output good functions.
func outputs(e *diffprop.Engine) []bdd.Ref {
	outs := make([]bdd.Ref, len(e.Circuit.Outputs))
	for i, o := range e.Circuit.Outputs {
		outs[i] = e.Good(o)
	}
	return outs
}

// scored lists the catalog circuits whose order scores take under a
// second each; the larger ones would make the test minutes long.
var scored = map[string]bool{"c17": true, "fadd": true, "c95s": true, "alu181": true, "c432s": true}

// TestOrderTableCoversCatalog pins the committed order table to the
// catalog: every circuit has an entry, the entry is a permutation of the
// working circuit's inputs, New adopts it when no order is given, and its
// output functions are no larger than under DFSOrder. On the circuits in
// scored it also checks the table's objective: the entry's stride-10
// stuck-at campaign (analysis.OrderOps) runs no more BDD operations than
// under DFSOrder or under one Sift pass over the output functions.
func TestOrderTableCoversCatalog(t *testing.T) {
	if len(diffprop.OrderTable) != len(circuits.Names()) {
		t.Fatalf("order table has %d entries for %d catalog circuits", len(diffprop.OrderTable), len(circuits.Names()))
	}
	for _, name := range circuits.Names() {
		c := circuits.MustGet(name)
		entry, ok := diffprop.OrderTable[name]
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
		e, err := diffprop.New(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if names := e.Manager().Names(); !reflect.DeepEqual(names, entry) {
			t.Fatalf("%s: New(c, nil) built order %v, want the table's %v", name, names, entry)
		}
		dfs, err := diffprop.New(c, &diffprop.Options{Order: diffprop.DFSOrder(e.Circuit)})
		if err != nil {
			t.Fatal(err)
		}
		if table, base := outputSize(e), outputSize(dfs); table > base {
			t.Fatalf("%s: output functions take %d nodes under the table, %d under DFSOrder", name, table, base)
		}
		if !scored[name] {
			continue
		}
		onePass, _, _ := dfs.Manager().Sift(outputs(dfs), 1)
		table, err := analysis.OrderOps(c, entry, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, base := range []struct {
			what  string
			order []string
		}{{"DFSOrder", diffprop.DFSOrder(e.Circuit)}, {"one output Sift pass", onePass.Names()}} {
			ops, err := analysis.OrderOps(c, base.order, 10)
			if err != nil {
				t.Fatal(err)
			}
			if table > ops {
				t.Fatalf("%s: the table order costs %d ops, %s %d", name, table, base.what, ops)
			}
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
		e, err := diffprop.New(c, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := e.Manager().Names(), diffprop.DFSOrder(e.Circuit); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: New(c, nil) built order %v, want DFSOrder %v", c.Name, got, want)
		}
	}

	// An explicit order still wins over the table.
	c := circuits.MustGet("c95s")
	natural := c.InputNames()
	e, err := diffprop.New(c, &diffprop.Options{Order: natural})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Manager().Names(); !reflect.DeepEqual(got, natural) {
		t.Fatalf("Options.Order %v was not used: built %v", natural, got)
	}
}
