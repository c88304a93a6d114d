package trace

import (
	"testing"
	"time"

	"asyncfd/internal/ident"
)

// BenchmarkLogRecord: one op records one suspicion transition into a log
// that starts afresh every 165 152 events, the transitions one async replicate
// of the churn family records at n = 32. B/op is the log's storage per
// recorded event, growth included. In churn the events are a microsecond
// apart, so every chunk stays narrow (8 bytes an event); in sparse they are
// a second apart, so every block spans more than its ±2³¹ ns window and each
// chunk widens at its fourth event: the 32 KiB of narrow records it leaves
// behind, then 64 KiB of 16-byte ones.
func BenchmarkLogRecord(b *testing.B) {
	for _, c := range []struct {
		name string
		gap  time.Duration
	}{{"churn", time.Microsecond}, {"sparse", time.Second}} {
		b.Run(c.name, func(b *testing.B) {
			const perLog = 165152
			b.ReportAllocs()
			l := &Log{}
			for i := 0; i < b.N; i++ {
				if i%perLog == 0 {
					l = &Log{}
				}
				l.OnSuspicion(time.Duration(i)*c.gap, ident.ID(i%32), ident.ID(i/32%32), i%2 == 0)
			}
		})
	}
}
