package lint

import "testing"

func TestClassOf(t *testing.T) {
	cases := []struct {
		path string
		want Class
	}{
		{"asyncfd/internal/des", Sim},
		{"asyncfd/internal/des/desutil", Sim},
		{"asyncfd/internal/qos", Sim},
		{"asyncfd/internal/qos/judge", Sim},
		// The runtime that decides every timer-based suspicion order.
		{"asyncfd/internal/monitor", Sim},
		{"asyncfd/internal/tcpnet", Live},
		{"asyncfd/cmd/fdlint", Live},
		{"asyncfd/examples/quorum", Live},
		{"asyncfd/internal/scenario", Neutral},
		{"asyncfd/internal/ident", Neutral},
		{"asyncfd/internal/lint", Neutral},
		// Prefix matching is per path segment, not per byte.
		{"asyncfd/internal/despite", Neutral},
		{"fmt", Neutral},
	}
	for _, c := range cases {
		if got := classOf(c.path); got != c.want {
			t.Errorf("classOf(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestParseAllow(t *testing.T) {
	note, ok := parseAllow("//fdlint:allow maprange per-peer in-place writes")
	if !ok || note.analyzer != "maprange" || note.reason != "per-peer in-place writes" {
		t.Errorf("parseAllow full form: got %+v ok=%v", note, ok)
	}
	note, ok = parseAllow("//fdlint:allow walltime")
	if !ok || note.analyzer != "walltime" || note.reason != "" {
		t.Errorf("parseAllow bare form: got %+v ok=%v", note, ok)
	}
	if _, ok := parseAllow("// plain comment"); ok {
		t.Error("parseAllow accepted a plain comment")
	}
	if _, ok := parseAllow("//fdlint:allow"); ok {
		t.Error("parseAllow accepted a directive with no analyzer")
	}
}

func TestAnalyzersRegistered(t *testing.T) {
	as := Analyzers()
	if len(as) != 4 {
		t.Fatalf("Analyzers() returned %d analyzers, want 4", len(as))
	}
	seen := make(map[string]bool)
	for _, a := range as {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q incompletely initialized", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
}
