package timeline

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"
)

// TestGoldenEncoding pins the SHA-256 of a sealed segment and a checkpoint
// built from fixed inputs, so a codec refactor that moves a byte in either
// file fails here.
func TestGoldenEncoding(t *testing.T) {
	evs := fuzzSeedEvents(200) // past timeIndexEvery, so the time index has several entries
	agg := NewAggregate()
	agg.Add(evs, nil)
	cut := time.Date(2022, 1, 1, 9, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		name string
		b    []byte
		sha  string
	}{
		{"segment", encodeSegment(0, []int64{6, 4}, fuzzSeedEvents(10)), "fd7b5af1059a6f75800acbbe9a702ee2dcd7a92761ebce54072a4cab2f9928ea"},
		{"segment-large", encodeSegment(7, []int64{120, 0, 80}, evs), "a0470323a54cf13cfdeff9f2c75c817f46c32b8c7690dc43f314e83204e420c6"},
		{"segment-empty", encodeSegment(1, []int64{0}, nil), "bc88381f52c30248c2691981c12c23bd59e26a189be20d3e4a9b1c0cae86e412"},
		{"checkpoint", encodeCheckpoint(2, 3, cut, cut.Add(time.Minute), agg), "1e83596388ad1506b0080e31eb7d385cb52875b5179d8326fc6957de6648e027"},
		{"checkpoint-empty", encodeCheckpoint(0, 0, time.Time{}, cut, NewAggregate()), "298dc9900b949f953eb362dd2eb9807a841d4cdfba788d7863fa5335bb85cfc2"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(tc.b)); got != tc.sha {
			t.Errorf("%s: sha256 %s, want %s", tc.name, got, tc.sha)
		}
	}
}
