// Package journaltest holds test support for code built on internal/journal:
// one table of header and recovery cases that every log's opener must pass,
// and a filesystem wrapper that tears a single write in half.
package journaltest

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/journal"
)

// Log describes one journal log for RunRecoveryTable.
type Log struct {
	// Name labels the log's subtests.
	Name string
	// File is the log's path relative to the directory Open is given.
	File string
	// Magic and MaxRecord are the log's header and record cap.
	Magic     [journal.HeaderLen]byte
	MaxRecord int
	// Record is one payload the log's recovery accepts as its first record.
	Record []byte
	// Open opens the component that owns the log on fs in dir, and closes
	// it again when the open succeeds.
	Open func(fs fault.FS, dir string) error
}

// RunRecoveryTable plants each recovery case as the log's file and runs the
// log's opener over it. Recoverable files must open and keep exactly the
// intact prefix; files with a foreign header, and files holding an intact
// frame over the record cap, must be refused and left byte-identical.
func RunRecoveryTable(t *testing.T, logs ...Log) {
	for _, lg := range logs {
		frame := journal.AppendFrame(nil, lg.Record)
		header := lg.Magic[:]
		cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
		cases := []struct {
			name    string
			raw     []byte
			keep    []byte // recovered file prefix; nil when the open must fail
			wantErr error
		}{
			{name: "empty", raw: []byte{}, keep: header},
			{name: "magic-prefix", raw: header[:5], keep: header},
			{name: "garbage-3", raw: []byte("xyz"), wantErr: journal.ErrBadHeader},
			{name: "wrong-magic", raw: cat([]byte("NOTALOG\n"), frame), wantErr: journal.ErrBadHeader},
			{name: "torn-last-frame", raw: cat(header, frame, frame[:len(frame)-3]), keep: cat(header, frame)},
			{name: "intact-over-cap", wantErr: journal.ErrOversized},
		}
		for _, tc := range cases {
			t.Run(lg.Name+"/"+tc.name, func(t *testing.T) {
				raw := tc.raw
				if tc.name == "intact-over-cap" {
					if lg.MaxRecord > journal.MaxRecordLen {
						// The refusal lives in journal.Open alone, and the
						// journal package proves it at a small cap; a frame
						// over this log's cap would cost a test run tens of
						// megabytes per copy.
						t.Skipf("record cap %d is too large to materialize", lg.MaxRecord)
					}
					raw = journal.AppendFrame(cat(header, frame), make([]byte, lg.MaxRecord+1))
				}
				fs := fault.NewSimFS(1, fault.Profile{})
				path := filepath.Join("dir", lg.File)
				if err := fs.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
				err := lg.Open(fs, "dir")
				got, rerr := fs.ReadFile(path)
				if rerr != nil {
					t.Fatal(rerr)
				}
				if tc.wantErr != nil {
					if !errors.Is(err, tc.wantErr) {
						t.Fatalf("open: err=%v, want %v", err, tc.wantErr)
					}
					if !bytes.Equal(got, raw) {
						t.Fatalf("refused file was modified: %d bytes -> %d", len(raw), len(got))
					}
					return
				}
				if err != nil {
					t.Fatalf("open: %v", err)
				}
				if !bytes.HasPrefix(got, tc.keep) {
					t.Fatalf("recovered file starts %q, want %q", head(got), head(tc.keep))
				}
				// Bytes past the kept prefix are only what the opener itself
				// appended after recovery (the event store seals a commit).
				if rest := got[len(tc.keep):]; len(rest) > 0 {
					if _, clean, _ := journal.ScanFrames(rest, func([]byte) error { return nil }); !clean {
						t.Fatalf("recovered file has %d bytes of garbage after its kept prefix", len(rest))
					}
				}
			})
		}
	}
}

func head(b []byte) []byte {
	if len(b) > 32 {
		return b[:32]
	}
	return b
}

// ErrTorn is the error a torn write returns.
var ErrTorn = fmt.Errorf("journaltest: torn write: %w", fault.ErrInjected)

// TearFS wraps a filesystem so that, once armed, the next Write to a file
// whose name ends in the armed suffix persists only the first half of its
// buffer and fails — the torn append a crash or a full disk leaves behind.
type TearFS struct {
	fault.FS
	mu     sync.Mutex
	suffix string
}

// Tear arms the next Write to a file whose name ends in suffix.
func (t *TearFS) Tear(suffix string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.suffix = suffix
}

func (t *TearFS) OpenFile(name string, flag int, perm os.FileMode) (fault.File, error) {
	f, err := t.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tearFile{File: f, fs: t, name: name}, nil
}

// take disarms and reports whether a write to name must tear.
func (t *TearFS) take(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.suffix == "" || !strings.HasSuffix(name, t.suffix) {
		return false
	}
	t.suffix = ""
	return true
}

type tearFile struct {
	fault.File
	fs   *TearFS
	name string
}

func (f *tearFile) Write(p []byte) (int, error) {
	if !f.fs.take(f.name) {
		return f.File.Write(p)
	}
	n, err := f.File.Write(p[:len(p)/2])
	if err != nil {
		return n, err
	}
	return n, ErrTorn
}
