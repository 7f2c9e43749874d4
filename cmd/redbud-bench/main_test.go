package main

import (
	"math"
	"strings"
	"testing"
)

func TestCheckFig(t *testing.T) {
	for _, tc := range []struct {
		fig string
		ok  bool
	}{
		{"3", true}, {"4", true}, {"5", true}, {"6", true}, {"7", true},
		{"obs", true}, {"shards", true}, {"all", true},
		{"visibility", false}, {"autoscale", false}, {"bogus", false}, {"", false}, {"8", false}, {"ALL", false}, {"3 ", false}, {"fig3", false},
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

func TestCheckParams(t *testing.T) {
	for _, tc := range []struct {
		clients     int
		scale, size float64
		bad         string // the flag the error must name; "" = accepted
	}{
		{7, 0.02, 0.5, ""}, {1, 1, 1, ""}, {3, 0.005, 0.1, ""},
		{0, 0.02, 0.5, "-clients"}, {-2, 0.02, 0.5, "-clients"},
		{7, 7, 0.5, "-scale"}, {7, 0, 0.5, "-scale"}, {7, -0.02, 0.5, "-scale"}, {7, math.NaN(), 0.5, "-scale"},
		{7, 0.02, 0, "-size"}, {7, 0.02, -1, "-size"}, {7, 0.02, 1.5, "-size"},
	} {
		err := checkParams(tc.clients, tc.scale, tc.size)
		if (err == nil) != (tc.bad == "") {
			t.Errorf("checkParams(%d, %g, %g) = %v, want bad flag %q", tc.clients, tc.scale, tc.size, err, tc.bad)
		}
		if err != nil && !strings.HasPrefix(err.Error(), tc.bad+" ") {
			t.Errorf("checkParams(%d, %g, %g) = %q, want it to name %s", tc.clients, tc.scale, tc.size, err, tc.bad)
		}
	}
}
