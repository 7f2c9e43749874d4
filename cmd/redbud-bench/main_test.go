package main

import (
	"strings"
	"testing"
)

func TestCheckFig(t *testing.T) {
	for _, tc := range []struct {
		fig string
		ok  bool
	}{
		{"3", true}, {"4", true}, {"5", true}, {"6", true}, {"7", true},
		{"autoscale", true}, {"obs", true}, {"visibility", true}, {"shards", true}, {"all", true},
		{"bogus", false}, {"", false}, {"8", false}, {"ALL", false}, {"3 ", false}, {"fig3", false},
	} {
		err := checkFig(tc.fig)
		if (err == nil) != tc.ok {
			t.Errorf("checkFig(%q) = %v, want ok=%v", tc.fig, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), strings.Join(figures, ", ")) {
			t.Errorf("checkFig(%q) = %q, want the valid names listed", tc.fig, err)
		}
	}
}
