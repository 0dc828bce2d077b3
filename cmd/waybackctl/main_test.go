package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/pcapio"
	"repro/internal/rules"
	"repro/internal/scanner"
	"repro/internal/telescope"
)

// The CLI prints to stdout; these tests exercise command dispatch, flag
// handling, and the artifact-writing paths. Output content is validated by
// the library tests; here we assert success/failure and side effects.

func TestRunCommands(t *testing.T) {
	commands := [][]string{
		{"-scale", "2000", "summary"},
		{"-scale", "2000", "table", "1"},
		{"-scale", "2000", "table", "2"},
		{"-scale", "2000", "table", "3"},
		{"-scale", "2000", "table", "4"},
		{"-scale", "2000", "table", "5"},
		{"-scale", "2000", "table", "6"},
		{"-scale", "2000", "table", "E"},
		{"-scale", "2000", "finding7"},
		{"-scale", "2000", "kev"},
		{"-scale", "2000", "audit"},
		{"-scale", "2000", "kevfeed"},
		{"-scale", "2000", "figure", "1"},
		{"-scale", "2000", "figure", "5"},
		{"-scale", "2000", "figure", "7"},
		{"-scale", "2000", "figure", "9"},
		{"-scale", "2000", "figure", "11"},
		{"-scale", "2000", "figure", "13"},
		{"-scale", "2000", "-stream", "summary"},
		{"-scale", "2000", "-stream", "-stream-segments", "3", "table", "4"},
		{"-scale", "2000", "-pipeline", "table", "4"},
	}
	// Silence stdout for the sweep.
	old := os.Stdout
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = null
	defer func() {
		os.Stdout = old
		null.Close()
	}()
	for _, args := range commands {
		if err := run(args); err != nil {
			t.Errorf("run(%v): %v", args, err)
		}
	}
}

func TestRunErrors(t *testing.T) {
	bad := [][]string{
		{},                                  // no command
		{"frobnicate"},                      // unknown command
		{"table", "9"},                      // unknown table
		{"figure", "99"},                    // unknown figure
		{"figure", "x"},                     // non-numeric figure
		{"-scale", "notanumber", "summary"}, // bad flag
	}
	old := os.Stdout
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = null
	defer func() {
		os.Stdout = old
		null.Close()
	}()
	for _, args := range bad {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunAllWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	old := os.Stdout
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = null
	err := run([]string{"-scale", "2000", "-out", dir, "all"})
	os.Stdout = old
	null.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"table1.csv", "table2.csv", "table3.txt", "table4.csv", "table5.csv",
		"table6.csv", "appendixE.csv", "figure1.csv", "figure2.csv",
		"figure3.csv", "figure4.csv", "figure5_13-18.csv", "figure6.csv",
		"figure7.csv", "figure8.csv", "figure9.csv", "figure10.csv",
		"figure11.csv", "figure12.csv",
	}
	for _, name := range want {
		path := filepath.Join(dir, name)
		info, err := os.Stat(path)
		if err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
			continue
		}
		if info.Size() == 0 {
			t.Errorf("artifact %s is empty", name)
		}
	}
	// Sanity on one CSV's content.
	data, err := os.ReadFile(filepath.Join(dir, "table4.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "V < A") {
		t.Errorf("table4.csv missing desiderata:\n%s", data)
	}
}

func TestRunArtifactsCommand(t *testing.T) {
	dir := t.TempDir()
	old := os.Stdout
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = null
	err := run([]string{"-scale", "2000", "-out", dir, "artifacts"})
	os.Stdout = old
	null.Close()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "disclosure-artifacts.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "2021-44228") {
		t.Error("artifact corpus missing Log4Shell")
	}
}

func TestRunTrendCommand(t *testing.T) {
	old := os.Stdout
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = null
	err := run([]string{"-scale", "2000", "trend"})
	os.Stdout = old
	null.Close()
	if err != nil {
		t.Fatal(err)
	}
}

func TestReplayCommand(t *testing.T) {
	// Write a small capture with the telescope, then replay it.
	dir := t.TempDir()
	path := filepath.Join(dir, "capture.pcap")
	bps, err := scanner.Build(scanner.Config{Seed: 3, Scale: 2000, Noise: 5})
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := pcapio.NewWriter(f, pcapio.LinkTypeEthernet, pcapio.WithNanoPrecision())
	if err != nil {
		t.Fatal(err)
	}
	tel := telescope.NewSim(telescope.SimConfig{Seed: 3})
	if err := tel.WritePcap(bps, w); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	old := os.Stdout
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = null
	err = run([]string{"replay", path})
	os.Stdout = old
	null.Close()
	if err != nil {
		t.Fatal(err)
	}

	// And with an explicit dated ruleset file.
	rulesPath := filepath.Join(dir, "study.rules")
	rs, err := scanner.StudyRuleset()
	if err != nil {
		t.Fatal(err)
	}
	rf, err := os.Create(rulesPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := rules.WriteDatedRuleset(rf, rs); err != nil {
		t.Fatal(err)
	}
	rf.Close()
	os.Stdout = null2()
	err = run([]string{"-rules", rulesPath, "replay", path})
	os.Stdout = old
	if err != nil {
		t.Fatal(err)
	}

	if err := run([]string{"replay"}); err == nil {
		t.Error("replay without file accepted")
	}
	if err := run([]string{"replay", filepath.Join(dir, "missing.pcap")}); err == nil {
		t.Error("replay of missing file accepted")
	}
}

func null2() *os.File {
	f, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	return f
}

func TestRunCICommand(t *testing.T) {
	old := os.Stdout
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = null
	err := run([]string{"-scale", "2000", "ci"})
	os.Stdout = old
	null.Close()
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunReportCommand(t *testing.T) {
	dir := t.TempDir()
	old := os.Stdout
	null, _ := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	os.Stdout = null
	err := run([]string{"-scale", "2000", "-out", dir, "report"})
	os.Stdout = old
	null.Close()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "report.md")); err != nil {
		t.Fatal(err)
	}
}
