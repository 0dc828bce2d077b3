// Package fuzzcorpus writes seed-corpus files for `go test -fuzz` targets.
//
// The fuzz targets add their seeds in code with f.Add, which covers fuzzing
// runs; committing the same seeds under testdata/fuzz/<FuzzName>/ makes
// plain `go test` execute them as subtests too, and gives a fuzzing run its
// starting population without a warm-up. Each package with fuzz targets has
// a REGEN_FUZZ_CORPUS-gated test that rewrites its corpus through this
// package, so the in-code seeds and the committed files cannot drift.
package fuzzcorpus

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
)

// header is the go command's corpus file version marker.
const header = "go test fuzz v1"

// Write rewrites testdata/fuzz/<fuzzName>/ (relative to the calling
// package's directory, which is the working directory under go test) to
// hold exactly the given seeds, one file per seed, for a target taking a
// single []byte or string argument.
func Write[T []byte | string](tb testing.TB, fuzzName string, seeds []T) {
	tb.Helper()
	dir := filepath.Join("testdata", "fuzz", fuzzName)
	// Only seed-* files are regenerated; fuzzer-found regression inputs
	// (hash-named files the fuzz engine wrote on a failure) are kept.
	old, err := filepath.Glob(filepath.Join(dir, "seed-*"))
	if err != nil {
		tb.Fatal(err)
	}
	for _, path := range old {
		if err := os.Remove(path); err != nil {
			tb.Fatal(err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		tb.Fatal(err)
	}
	var zero T
	typ := "[]byte"
	if _, ok := any(zero).(string); ok {
		typ = "string"
	}
	for i, seed := range seeds {
		body := fmt.Sprintf("%s\n%s(%s)\n", header, typ, strconv.Quote(string(seed)))
		path := filepath.Join(dir, fmt.Sprintf("seed-%03d", i))
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	tb.Logf("wrote %d seeds to %s", len(seeds), dir)
}

// Regen reports whether corpus regeneration was requested via the
// REGEN_FUZZ_CORPUS environment variable; the gated tests skip otherwise.
func Regen() bool { return os.Getenv("REGEN_FUZZ_CORPUS") != "" }

// AllocatedBytes returns how many heap bytes fn allocated. The codec fuzz
// targets and allocation regression tests use it to check that an untrusted
// count in a payload never sizes an allocation beyond what the payload's
// own bytes could hold. The measure is process-wide, so fn must not run
// alongside other allocating work (no t.Parallel), and bounds need a fixed
// allowance on top: the first fmt.Errorf after a GC refills fmt's printer
// pool, a few KiB.
func AllocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
