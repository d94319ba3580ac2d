package main

import (
	"io"
	"testing"
)

// TestGroupchatExample executes the example end to end; run() checks its own
// delivery claim and returns an error on any deviation.
func TestGroupchatExample(t *testing.T) {
	if err := run(io.Discard); err != nil {
		t.Fatal(err)
	}
}
