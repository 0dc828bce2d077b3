package journal_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/journal"
	"repro/internal/journal/journaltest"
)

var testMagic = [journal.HeaderLen]byte{'T', 'E', 'S', 'T', 'L', 'O', 'G', '\n'}

// openTest opens path on fs with a small record cap, collecting replayed
// payloads; a payload starting with 0xFF ends replay with journal.Stop.
func openTest(t testing.TB, fs fault.FS, path string) (*journal.Log, [][]byte, error) {
	t.Helper()
	var got [][]byte
	l, err := journal.Open(fs, path, testMagic, 64, func(p []byte) error {
		if len(p) > 0 && p[0] == 0xFF {
			return journal.Stop
		}
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	return l, got, err
}

func frames(payloads ...string) []byte {
	var b []byte
	for _, p := range payloads {
		b = journal.AppendFrame(b, []byte(p))
	}
	return b
}

func fileBytes(t testing.TB, fs fault.FS, path string) []byte {
	t.Helper()
	b, err := fs.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStopAndCapEndRecovery(t *testing.T) {
	for _, tc := range []struct {
		name    string
		body    []byte
		keep    []byte
		wantErr error
	}{
		{name: "stop", body: frames("a", "\xffspliced", "b"), keep: frames("a")},
		{name: "torn-over-cap", body: append(frames("a"), frames(strings.Repeat("x", 65))[:40]...), keep: frames("a")},
		{name: "intact-over-cap", body: frames("a", strings.Repeat("x", 65)), wantErr: journal.ErrOversized},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := fault.NewSimFS(1, fault.Profile{})
			raw := append(testMagic[:], tc.body...)
			if err := fs.WriteFile("log", raw, 0o644); err != nil {
				t.Fatal(err)
			}
			l, _, err := openTest(t, fs, "log")
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) || !bytes.Equal(fileBytes(t, fs, "log"), raw) {
					t.Fatalf("err=%v, want %v with the file untouched", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			want := append(testMagic[:], tc.keep...)
			if got := fileBytes(t, fs, "log"); !bytes.Equal(got, want) || l.Size() != int64(len(want)) {
				t.Fatalf("recovered %q (size %d), want %q", got, l.Size(), want)
			}
		})
	}
}

// TestAppendRollsBack: a torn write and a failed fsync each leave the log
// at its last frame boundary, so the next append follows intact frames.
func TestAppendRollsBack(t *testing.T) {
	sim := fault.NewSimFS(1, fault.Profile{})
	fs := &journaltest.TearFS{FS: sim}
	l, _, err := openTest(t, fs, "log")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(frames("one")); err != nil {
		t.Fatal(err)
	}
	fs.Tear("log")
	if err := l.Append(frames("torn")); !errors.Is(err, journaltest.ErrTorn) {
		t.Fatalf("torn append: %v", err)
	}
	sim.FailWith(func(op, name string) error {
		if op == "sync" {
			return fault.ErrInjected
		}
		return nil
	})
	if err := l.AppendSync(frames("unsynced")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("AppendSync with failing fsync: %v", err)
	}
	sim.FailWith(nil)
	if err := l.AppendSync(frames("two")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l, got, err := openTest(t, fs, "log")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(got) != 2 || string(got[0]) != "one" || string(got[1]) != "two" {
		t.Fatalf("recovered %q, want [one two]", got)
	}
}

// TestFailedRollbackPoisons: when the rollback of a failed append fails too,
// the log's tail is unknown and every later append must refuse.
func TestFailedRollbackPoisons(t *testing.T) {
	fs := fault.NewSimFS(1, fault.Profile{})
	l, _, err := openTest(t, fs, "log")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	fs.FailWith(func(op, name string) error {
		if op == "write" || op == "truncate" {
			return fault.ErrInjected
		}
		return nil
	})
	if err := l.Append(frames("a")); err == nil {
		t.Fatal("append succeeded under an injected write fault")
	}
	fs.FailWith(nil)
	if err := l.Append(frames("b")); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("append to a poisoned log: %v", err)
	}
}

// TestRefreshAdoptsForeignAppends: a second handle picks up frames another
// writer appended, and leaves a short tail alone for its writer to finish.
func TestRefreshAdoptsForeignAppends(t *testing.T) {
	fs := fault.NewSimFS(1, fault.Profile{})
	w, _, err := openTest(t, fs, "log")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	r, _, err := openTest(t, fs, "log")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := w.Append(frames("x", "y")); err != nil {
		t.Fatal(err)
	}
	partial := frames("z")
	if err := w.Append(partial[:5]); err != nil {
		t.Fatal(err)
	}
	var got []string
	if err := r.Refresh(func(p []byte) error { got = append(got, string(p)); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != "y" || r.Size() != int64(journal.HeaderLen+len(frames("x", "y"))) {
		t.Fatalf("refresh replayed %q to size %d", got, r.Size())
	}
	if n := len(fileBytes(t, fs, "log")); n != int(w.Size()) {
		t.Fatalf("refresh truncated the writer's tail: file %d bytes, writer at %d", n, w.Size())
	}
}

// TestRewriteFramesAndTail: compaction writes new frames followed by a byte
// copy of the retained tail, and appends continue after it.
func TestRewriteFramesAndTail(t *testing.T) {
	fs := fault.NewSimFS(1, fault.Profile{})
	l, _, err := openTest(t, fs, "log")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(frames("old", "kept")); err != nil {
		t.Fatal(err)
	}
	keepFrom := int64(journal.HeaderLen + len(frames("old")))
	if err := l.Rewrite(frames("new"), keepFrom); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(frames("after")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	want := append(testMagic[:], frames("new", "kept", "after")...)
	if got := fileBytes(t, fs, "log"); !bytes.Equal(got, want) {
		t.Fatalf("rewritten log %q, want %q", got, want)
	}
	for _, name := range fs.Files() {
		if strings.HasSuffix(name, ".tmp") {
			t.Fatalf("rewrite left %s behind", name)
		}
	}
}
