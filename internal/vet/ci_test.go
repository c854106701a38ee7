package vet

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestInjectedViolationCoversCriticalPackages holds CI's
// injected-violation step to criticalPkgs: the step injects a map range
// into each package it lists and requires hlsvet to flag it, so a
// critical package missing from the list is one whose maporder rule CI
// never sees fire.
func TestInjectedViolationCoversCriticalPackages(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", ".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	_, step, ok := strings.Cut(string(data), "name: Source invariants catch an injected violation")
	if !ok {
		t.Fatal("ci.yml has no injected-violation step")
	}
	_, loop, ok := strings.Cut(step, "for pkg in ")
	if !ok {
		t.Fatal("the injected-violation step has no package loop")
	}
	loop, _, _ = strings.Cut(loop, ";")
	listed := strings.Fields(loop)
	slices.Sort(listed)
	var critical []string
	for pkg := range criticalPkgs {
		critical = append(critical, strings.TrimPrefix(pkg, "repro/internal/"))
	}
	slices.Sort(critical)
	if !slices.Equal(listed, critical) {
		t.Errorf("ci.yml injects into %v, criticalPkgs lists %v", listed, critical)
	}
}
