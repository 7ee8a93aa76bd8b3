package main

import "testing"

func TestConfigByNameCoversEveryConfiguration(t *testing.T) {
	names := []string{
		"berkmin", "less-sensitivity", "less-mobility", "limited-keeping",
		"chaff", "limmat", "tiered", "evsids", "lrb", "modern", "sat-top",
		"unsat-top", "take-0", "take-1", "take-rand",
	}
	for _, n := range names {
		if _, ok := configByName(n); !ok {
			t.Errorf("config %q missing", n)
		}
	}
	if _, ok := configByName("bogus"); ok {
		t.Error("unknown config accepted")
	}
}

func TestConfigsDiffer(t *testing.T) {
	a, _ := configByName("berkmin")
	b, _ := configByName("chaff")
	if a.Decision == b.Decision && a.Reduce == b.Reduce {
		t.Error("berkmin and chaff configs should differ")
	}
}
