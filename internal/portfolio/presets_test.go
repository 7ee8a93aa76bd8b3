package portfolio

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"berkmin/internal/core"
)

// renamed maps a ladder member's old name to the preset it now takes:
// berkmin-rand had take-rand's options exactly.
var renamed = map[string]string{"berkmin-rand": "take-rand"}

// TestPresetGolden: every configuration name berkmin -config accepted and
// every portfolio member kept the Options it had before the preset table,
// compared field by field against testdata/presets.golden.
func TestPresetGolden(t *testing.T) {
	data, err := os.ReadFile("testdata/presets.golden")
	if err != nil {
		t.Fatal(err)
	}
	var variants [][2]string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.SplitN(line, "\t", 3)
		if len(f) != 3 {
			t.Fatalf("bad golden line %q", line)
		}
		switch f[0] {
		case "config":
			opt, ok := core.Preset(f[1])
			if !ok {
				t.Errorf("preset %q missing", f[1])
				continue
			}
			compareFields(t, f[1], f[2], opt)
		case "variant":
			variants = append(variants, [2]string{f[1], f[2]})
		default:
			t.Fatalf("bad golden line %q", line)
		}
	}
	got := Variants(len(variants), 1)
	for i, v := range variants {
		base, cycle, _ := strings.Cut(v[0], "#")
		if r, ok := renamed[base]; ok {
			base = r
		}
		want := base
		if cycle != "" {
			want += "#" + cycle
		}
		if got[i].Name != want {
			t.Errorf("variant %d: name %q, want %q", i, got[i].Name, want)
		}
		compareFields(t, got[i].Name, v[1], got[i].Opt)
	}
}

// compareFields reports every field whose %+v rendering differs from the
// golden one.
func compareFields(t *testing.T, name, golden string, opt core.Options) {
	t.Helper()
	want, got := fields(golden), fields(fmt.Sprintf("%+v", opt))
	if len(want) != len(got) {
		t.Errorf("%s: %d fields, want %d", name, len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: %s = %q, want %q", name, k, got[k], w)
		}
	}
}

func fields(s string) map[string]string {
	m := map[string]string{}
	for _, kv := range strings.Fields(strings.Trim(s, "{}")) {
		k, v, _ := strings.Cut(kv, ":")
		m[k] = v
	}
	return m
}

// TestPresetsDistinct: the table has one name per distinct option set.
func TestPresetsDistinct(t *testing.T) {
	seen := map[string]bool{}
	opts := map[core.Options]string{}
	for _, p := range core.Presets() {
		if seen[p.Name] {
			t.Errorf("duplicate preset name %q", p.Name)
		}
		seen[p.Name] = true
		if other, ok := opts[p.Opt]; ok {
			t.Errorf("presets %q and %q have the same options", other, p.Name)
		}
		opts[p.Opt] = p.Name
	}
}
