package hotspot

import (
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// BenchmarkSessionCheckpoint times a paper-budget h2 session (seed 7, two
// workers, transient chaos) that checkpoints as it goes, and reports what
// durability wrote: bytes and records per session, and the size of
// the checkpoint the session leaves. Written bytes that grow linearly stay
// within a small multiple of the final size at any cadence.
//
//	go test -run '^$' -bench BenchmarkSessionCheckpoint ./hotspot
func BenchmarkSessionCheckpoint(b *testing.B) {
	for _, every := range []int{1, 8} {
		b.Run("every="+strconv.Itoa(every), func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "session.ckpt")
			var bytes, writes uint64
			var final int64
			for i := 0; i < b.N; i++ {
				os.Remove(path)
				reg := NewMetricsRegistry()
				if _, err := Tune(Options{
					Benchmark:             "h2",
					Seed:                  7,
					Workers:               2,
					Noise:                 -1,
					Chaos:                 "launch=0.05,corrupt=0.03,crash=0.03",
					CheckpointPath:        path,
					CheckpointEveryTrials: every,
					Telemetry:             reg,
				}); err != nil {
					b.Fatal(err)
				}
				bytes += reg.Counter("checkpoint_bytes_written_total").Value()
				writes += reg.Counter("checkpoint_writes_total").Value()
				fi, err := os.Stat(path)
				if err != nil {
					b.Fatal(err)
				}
				final = fi.Size()
			}
			b.ReportMetric(float64(bytes)/float64(b.N), "ckpt_bytes/op")
			b.ReportMetric(float64(writes)/float64(b.N), "ckpt_writes/op")
			b.ReportMetric(float64(final), "ckpt_final_bytes")
		})
	}
}
