package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// The committed gate file loads, and a copy of it with one key misspelled —
// a threshold, or the cost-model switch under its retired name — is refused
// rather than run with that threshold or the model off, as is a copy whose
// cell names a mix that is not registered (rather than run up to that cell).
func TestLoadGate(t *testing.T) {
	data, err := os.ReadFile("../../bench-gate.json")
	if err != nil {
		t.Fatal(err)
	}
	gf, err := loadGate(data)
	if err != nil {
		t.Fatalf("bench-gate.json: %v", err)
	}
	if c := gf.Cells[0]; c.Thresholds.P999NSMax == 0 || !c.Config.Model {
		t.Fatalf("bench-gate.json's first cell loaded as %+v", c)
	}

	for _, key := range [][2]string{{"p999_ns_max", "p999_ns_mx"}, {"model", "scale"}} {
		bad := bytes.Replace(data, []byte(`"`+key[0]+`"`), []byte(`"`+key[1]+`"`), 1)
		if bytes.Equal(bad, data) {
			t.Fatalf("bench-gate.json has no %q key to misspell", key[0])
		}
		if _, err := loadGate(bad); err == nil || !strings.Contains(err.Error(), key[1]) {
			t.Errorf("a gate file with %q for %q: err = %v, want the unknown key named", key[1], key[0], err)
		}
	}

	mix := []byte(`"mix": "` + gf.Cells[0].Config.Mix + `"`)
	bad := bytes.Replace(data, mix, []byte(`"mix": "no-such-mix"`), 1)
	if bytes.Equal(bad, data) {
		t.Fatalf("bench-gate.json has no %s to rename", mix)
	}
	if _, err := loadGate(bad); err == nil || !strings.Contains(err.Error(), "no-such-mix") {
		t.Errorf("a gate file naming mix %q: err = %v, want the unknown mix named", "no-such-mix", err)
	}
}
