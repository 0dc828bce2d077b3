package journal_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/fuzzcorpus"
	"repro/internal/journal"
)

func fuzzJournalRecoverSeeds() [][]byte {
	withHeader := func(body []byte) []byte { return append(testMagic[:], body...) }
	valid := withHeader(frames("a", "bb", ""))
	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-3] ^= 0x40 // CRC of the middle frame no longer matches
	return [][]byte{
		{},
		testMagic[:],
		testMagic[:3],
		[]byte("abc"),
		append([]byte("NOTALOG\n"), frames("a")...),
		valid,
		valid[:len(valid)-5],
		corrupt,
		withHeader(frames("a", strings.Repeat("x", 65))),
		withHeader(append(frames("a"), frames(strings.Repeat("x", 65))[:30]...)),
		withHeader(frames("a", "\xffspliced", "b")),
	}
}

// TestRegenFuzzJournalRecoverCorpus writes the committed seed corpus when
// REGEN_FUZZ_CORPUS=1.
func TestRegenFuzzJournalRecoverCorpus(t *testing.T) {
	if !fuzzcorpus.Regen() {
		t.Skip("set REGEN_FUZZ_CORPUS=1 to regenerate")
	}
	fuzzcorpus.Write(t, "FuzzJournalRecover", fuzzJournalRecoverSeeds())
}

// FuzzJournalRecover feeds arbitrary bytes as a log file. Open must never
// panic; a refused file must be left untouched; a recovered file must be
// exactly the header plus the re-encoded frames replay saw, a prefix of the
// input; and an append must survive a reopen after that prefix.
func FuzzJournalRecover(f *testing.F) {
	for _, seed := range fuzzJournalRecoverSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fs := fault.NewSimFS(1, fault.Profile{})
		if err := fs.WriteFile("log", data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, got, err := openTest(t, fs, "log")
		if err != nil {
			if !errors.Is(err, journal.ErrBadHeader) && !errors.Is(err, journal.ErrOversized) {
				t.Fatalf("unexpected open error: %v", err)
			}
			if !bytes.Equal(fileBytes(t, fs, "log"), data) {
				t.Fatal("refused file was modified")
			}
			return
		}
		kept := append([]byte(nil), testMagic[:]...)
		for _, p := range got {
			kept = journal.AppendFrame(kept, p)
		}
		if file := fileBytes(t, fs, "log"); !bytes.Equal(file, kept) || l.Size() != int64(len(kept)) {
			t.Fatalf("recovered file is %d bytes (Size %d), re-encoded frames are %d", len(file), l.Size(), len(kept))
		}
		if len(data) >= journal.HeaderLen && !bytes.HasPrefix(data, kept) {
			t.Fatal("recovered file is not a prefix of the input")
		}
		if err := l.AppendSync(journal.AppendFrame(nil, []byte("post"))); err != nil {
			t.Fatal(err)
		}
		l.Close()
		l, again, err := openTest(t, fs, "log")
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer l.Close()
		if len(again) != len(got)+1 || string(again[len(got)]) != "post" {
			t.Fatalf("reopen replayed %d frames, want %d ending in the append", len(again), len(got)+1)
		}
		if file := fileBytes(t, fs, "log"); !bytes.Equal(file, journal.AppendFrame(kept, []byte("post"))) {
			t.Fatal("reopened file is not the kept prefix plus the appended frame")
		}
	})
}
