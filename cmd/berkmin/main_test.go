package main

import (
	"strings"
	"testing"

	"berkmin/internal/core"
)

func TestConfigByNameCoversEveryConfiguration(t *testing.T) {
	names := presetNames()
	for _, p := range core.Presets() {
		opt, ok := core.Preset(p.Name)
		if !ok || opt != p.Opt {
			t.Errorf("config %q missing", p.Name)
		}
		if !strings.Contains(names, p.Name) {
			t.Errorf("config %q missing from the -config help", p.Name)
		}
	}
	if _, ok := core.Preset("bogus"); ok {
		t.Error("unknown config accepted")
	}
}

func TestConfigsDiffer(t *testing.T) {
	a, _ := core.Preset("berkmin")
	b, _ := core.Preset("chaff")
	if a.Decision == b.Decision && a.Reduce == b.Reduce {
		t.Error("berkmin and chaff configs should differ")
	}
}
