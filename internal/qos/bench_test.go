package qos

import (
	"math/rand"
	"testing"
	"time"

	"asyncfd/internal/ident"
	"asyncfd/internal/trace"
)

// judgeSink keeps BenchmarkJudgeFrom's result alive.
var judgeSink *Judge

// BenchmarkJudgeFrom: one op judges a time-ordered log of 165 152
// transitions over the 992 pairs of 32 processes, each pair alternating
// suspicion and trust — the size of one async replicate of the churn
// family.
func BenchmarkJudgeFrom(b *testing.B) {
	const n, events = 32, 165152
	r := rand.New(rand.NewSource(1))
	l := &trace.Log{}
	suspected := make(map[[2]ident.ID]bool)
	for i := 0; i < events; i++ {
		obs := ident.ID(r.Intn(n))
		subj := ident.ID((int(obs) + 1 + r.Intn(n-1)) % n)
		p := [2]ident.ID{obs, subj}
		suspected[p] = !suspected[p]
		l.OnSuspicion(time.Duration(i)*time.Millisecond, obs, subj, suspected[p])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		judgeSink = JudgeFrom(l)
	}
}
