package trace

import (
	"testing"
	"time"

	"asyncfd/internal/ident"
)

// BenchmarkLogRecord: one op records one suspicion transition into a log
// that starts afresh every 165 152 events, the transitions one async replicate
// of the churn family records at n = 32. B/op is the log's storage per
// recorded event, growth included.
func BenchmarkLogRecord(b *testing.B) {
	const perLog = 165152
	b.ReportAllocs()
	l := &Log{}
	for i := 0; i < b.N; i++ {
		if i%perLog == 0 {
			l = &Log{}
		}
		l.OnSuspicion(time.Duration(i)*time.Microsecond, ident.ID(i%32), ident.ID(i/32%32), i%2 == 0)
	}
}
