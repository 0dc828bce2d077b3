package lifecycle

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"repro/internal/ids"
)

// TestGoldenEncoding pins the SHA-256 of Builder.AppendBinary from fixed
// inputs (the timeline checkpoint's 'L' frame), so a codec refactor that
// moves a checkpoint byte fails here.
func TestGoldenEncoding(t *testing.T) {
	at := time.Date(2021, 12, 10, 12, 0, 0, 123456789, time.UTC)
	b := NewBuilder()
	b.AddEvents([]ids.Event{
		{Time: at, SID: 1, CVE: "2021-44228"},
		{Time: at.Add(-time.Hour), SID: 2, CVE: "2021-44228"},
		{Time: at, SID: 3, CVE: "2022-26134", Published: time.Date(2090, 1, 1, 0, 0, 0, 0, time.UTC)},
		{Time: at, SID: 4, CVE: "2023-0001"},
	}, map[int]time.Time{1: at.AddDate(0, 0, -2)})
	for _, tc := range []struct {
		name string
		b    []byte
		sha  string
	}{
		{"lifecycle", b.AppendBinary(nil), "bafe2252608affc6785169e9fab5410b4add6bf4b47a806fe6333f1fb0003969"},
		{"lifecycle-empty", NewBuilder().AppendBinary(nil), "df3f619804a92fdb4057192dc43dd748ea778adc52bc498ce80524c014b81119"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(tc.b)); got != tc.sha {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.sha)
		}
	}
}
