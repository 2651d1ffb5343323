package faultinject

import (
	"reflect"
	"testing"
)

// TestServingDecision pins the typed serving decision: each kind
// renders the exact osiris-trace/v1 Serving text, and PlaneStats is the
// fold of a decision list — journal-served runs skipped, reason maps
// nil where nothing was counted (benchtables JSON renders them).
func TestServingDecision(t *testing.T) {
	t.Parallel()
	cold := serving{kind: servedCold, reason: FallbackPreBarrier}
	elided := serving{kind: servedElided, rung: 17, barrier: 33}
	full := serving{kind: servedFull, rung: 4, reason: ElideFallbackMismatch}
	boot := serving{kind: servedFull, rung: 0, reason: ElideFallbackUntriggered}
	journal := serving{kind: servedJournal}

	for _, c := range []struct {
		d    serving
		want string
	}{
		{cold, "cold:occurrence-within-boot"},
		{elided, "rung:17 elided:33"},
		{full, "rung:4 full:fingerprint-mismatch"},
		{boot, "rung:0 full:fault-untriggered"},
		{journal, "journal"},
	} {
		if got := c.d.String(); got != c.want {
			t.Errorf("%+v renders %q, want %q", c.d, got, c.want)
		}
	}

	fold := func(ds ...serving) PlaneStats {
		var s PlaneStats
		for _, d := range ds {
			s.add(d)
		}
		return s
	}
	for _, c := range []struct {
		name string
		ds   []serving
		want PlaneStats
	}{
		{"Empty", nil, PlaneStats{}},
		{"JournalOnly", []serving{journal, journal}, PlaneStats{}},
		{"ElidedOnly", []serving{elided, elided, journal}, PlaneStats{LadderForks: 2, Elided: 2}},
		{"ColdOnly", []serving{cold, cold}, PlaneStats{
			ColdBoots: 2, Fallbacks: map[string]int{FallbackPreBarrier: 2},
		}},
		{"Mixed", []serving{elided, full, boot, cold, journal, full}, PlaneStats{
			LadderForks: 3, BootForks: 1, ColdBoots: 1, Elided: 1,
			Fallbacks:        map[string]int{FallbackPreBarrier: 1},
			ElisionFallbacks: map[string]int{ElideFallbackMismatch: 2, ElideFallbackUntriggered: 1},
		}},
	} {
		if got := fold(c.ds...); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: fold = %+v, want %+v", c.name, got, c.want)
		}
	}

	// clone shares no map with the fold it copies.
	s := fold(cold, full)
	c := s.clone()
	c.Fallbacks[FallbackPreBarrier]++
	c.ElisionFallbacks[ElideFallbackMismatch]++
	if s.Fallbacks[FallbackPreBarrier] != 1 || s.ElisionFallbacks[ElideFallbackMismatch] != 1 {
		t.Errorf("clone aliases the original's maps: %+v", s)
	}
}
