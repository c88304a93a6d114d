package fd

import (
	"testing"
	"time"

	"asyncfd/internal/ident"
)

func TestSinkFunc(t *testing.T) {
	var gotAt time.Duration
	var gotObs, gotSubj ident.ID
	var gotSusp bool
	s := SinkFunc(func(at time.Duration, observer, subject ident.ID, suspected bool) {
		gotAt, gotObs, gotSubj, gotSusp = at, observer, subject, suspected
	})
	s.OnSuspicion(3*time.Second, 1, 2, true)
	if gotAt != 3*time.Second || gotObs != 1 || gotSubj != 2 || !gotSusp {
		t.Errorf("SinkFunc forwarded (%v, %v, %v, %v)", gotAt, gotObs, gotSubj, gotSusp)
	}
}
