package main

import (
	"strings"
	"testing"

	"berkmin/internal/bench"
)

// TestUnknownClassListsClasses: a bad -class names every class there is.
func TestUnknownClassListsClasses(t *testing.T) {
	classes := bench.Classes(bench.Small)
	msg := unknownClass("Bogus", classes)
	if !strings.Contains(msg, `"Bogus"`) {
		t.Errorf("message does not name the bad class: %s", msg)
	}
	for _, cl := range classes {
		if !strings.Contains(msg, cl.Name) {
			t.Errorf("message lacks class %s: %s", cl.Name, msg)
		}
	}
}
