package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchQualityReproducesBaseline: the quality kind, run from the
// repository root as CI runs it, writes BENCH_quality.json byte for
// byte — the grid's quality oracle is the one that produced it.
func TestBenchQualityReproducesBaseline(t *testing.T) {
	out := filepath.Join(t.TempDir(), "quality.json")
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(filepath.Join("..", "..")); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
	if err := runBench([]string{"-kind", "quality", "-out", out}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("BENCH_quality.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("fresh quality report differs from the committed BENCH_quality.json")
	}
}

// TestBenchMisuse: an unknown kind, or a flag that belongs to another
// kind, fails before any work starts.
func TestBenchMisuse(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-kind", "nope"}, `unknown -kind "nope"`},
		{[]string{"-kind", "engine", "-grid", "g.json"}, "-grid applies only to -kind grid"},
		{[]string{"-kind", "quality", "-resume"}, "-resume applies only to -kind grid"},
		{[]string{"-pipeline-n", "1000"}, "-pipeline-n applies only to -kind engine"},
		{[]string{"-kind", "quality", "-pipeline-n", "1000"}, "-pipeline-n applies only to -kind engine"},
		{[]string{"-kind", "engine", "-million=false"}, "-million applies only to -kind generators"},
		{[]string{"-kind", "engine", "-pipeline-n", "-5"}, "-pipeline-n -5"},
	} {
		err := runBench(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("runBench(%q) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}
