package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestDotWrittenForEveryModel: -dot writes the first analyzed fault's
// complete-test-set BDD whatever the fault model.
func TestDotWrittenForEveryModel(t *testing.T) {
	dir := t.TempDir()
	for _, model := range []string{"stuckat", "and", "or"} {
		path := filepath.Join(dir, model+".dot")
		_, stderr, code := runDiffprop(t, "-circuit", "c17", "-model", model, "-summary", "-dot", path)
		if code != 0 {
			t.Fatalf("-model %s exited %d:\n%s", model, code, stderr)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("-model %s: -dot wrote no file: %v", model, err)
		}
		if !bytes.HasPrefix(data, []byte("digraph")) {
			t.Fatalf("-model %s: -dot file starts %q, want a digraph", model, data[:min(len(data), 20)])
		}
	}
}
