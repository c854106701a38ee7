package main

import (
	"os"
	"testing"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs and finds designs/*.hls.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}
