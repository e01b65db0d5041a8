package predictor

import (
	"reflect"
	"testing"
)

// TestRegistryConstructsEveryKind proves the kind table is exhaustive:
// every registered name constructs under the zero config and under a
// fully-populated one, and the expected kind set is present (a kind
// missing from New's switch fails here, not in a tool).
func TestRegistryConstructsEveryKind(t *testing.T) {
	want := []string{"fcm", "lvp", "none", "stride", "stride-2d", "vtage"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range Names() {
		for _, cfg := range []FactoryConfig{
			{},
			{Confidence: 3, Scheme: ByDataAddr, UsePID: true, FPC: 4, FPCSeed: 7, HistoryLen: 2},
		} {
			p, err := New(name, cfg)
			if err != nil {
				t.Errorf("New(%q, %+v): %v", name, cfg, err)
				continue
			}
			if p == nil {
				t.Errorf("New(%q, %+v) returned a nil predictor", name, cfg)
			}
		}
		if !Registered(name) {
			t.Errorf("Registered(%q) = false for a listed name", name)
		}
	}
}

func TestRegistryUnknownKind(t *testing.T) {
	if _, err := New("tage-sc-l", FactoryConfig{}); err == nil {
		t.Fatal("New with an unknown kind succeeded")
	}
	if Registered("tage-sc-l") {
		t.Fatal("Registered reports an unknown kind")
	}
}

func TestParseScheme(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want IndexScheme
	}{{"", ByPC}, {"pc", ByPC}, {"addr", ByDataAddr}, {"phys", ByPhysAddr}} {
		got, err := ParseScheme(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseScheme("virt"); err == nil {
		t.Error("ParseScheme accepted an unknown scheme")
	}
}
