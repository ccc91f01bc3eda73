package shill

import (
	"strings"
	"testing"
)

// TestRangeRejectsUnboundedCounts: range's count comes straight from
// script arithmetic, so a count that is not a small non-negative
// integer must be a script error — never a panic out of Session.Run —
// and the session must stay usable afterwards.
func TestRangeRejectsUnboundedCounts(t *testing.T) {
	big := "1" + strings.Repeat("0", 200) // 1e200; the product overflows
	counts := map[string]string{
		"inf":      big + " * " + big,
		"nan":      "(" + big + " * " + big + ") * 0",
		"huge":     "1000000000000000000",
		"fraction": "2.5",
	}
	for name, count := range counts {
		t.Run(name, func(t *testing.T) {
			m := newTestMachine(t)
			s := m.NewSession()
			defer s.Close()
			src := "#lang shill/ambient\n\nxs = range(" + count + ");\n"
			_, err := s.Run(bg, Script{Name: "range.ambient", Source: src})
			if err == nil || !strings.Contains(err.Error(), "range") {
				t.Fatalf("range(%s): err = %v, want a range script error", name, err)
			}
			assertSessionReusable(t, s)
		})
	}
}
