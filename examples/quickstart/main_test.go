package main

import (
	"io"
	"testing"
)

// TestQuickstartExample executes the example end to end; run() checks its own
// delivery claim and returns an error on any deviation.
func TestQuickstartExample(t *testing.T) {
	if err := run(io.Discard); err != nil {
		t.Fatal(err)
	}
}
