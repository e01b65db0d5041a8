package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vpsec/internal/cachebench"
)

// childEnv makes the test binary a child process. Its value names the
// check the child runs, from a registry that nothing has read yet: in
// the parent, other tests have already built the cache family.
const childEnv = "SCENARIO_TEST_CHILD"

// runChild runs this test binary again, running only the test named
// test (none when test is empty) with childEnv set to mode, plus env,
// and returns its combined output. A child that fails, or that did not
// run and pass the test, fails t.
func runChild(t *testing.T, test, mode string, env ...string) []byte {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$", "-test.v")
	cmd.Env = append(append(os.Environ(), childEnv+"="+mode), env...)
	out, err := cmd.CombinedOutput()
	if err == nil && test != "" && !bytes.Contains(out, []byte("--- PASS: "+test+" ")) {
		err = errors.New("the test did not run")
	}
	if err != nil {
		t.Fatalf("child %q: %v\n%s", mode, err, out)
	}
	return out
}

// TestFreshRegistry checks the cache family's first use in a fresh
// process. The lookup child reads single entries first: a hit and a
// miss outside the family build nothing, a Lookup of a family name
// finds its golden entry, and a misspelt family name misses. The race
// child has 8 goroutines race through first use. Both then list the
// registry and compare it with the golden.
func TestFreshRegistry(t *testing.T) {
	switch mode := os.Getenv(childEnv); mode {
	case "":
		for _, mode := range []string{"lookup", "race"} {
			t.Run(mode, func(t *testing.T) {
				runChild(t, "TestFreshRegistry", mode)
			})
		}
		return
	case "lookup":
		freshLookups(t)
	case "race":
		freshRace(t)
	default:
		t.Fatalf("unknown %s mode %q", childEnv, mode)
	}
	if got := registryJSON(t, All()); !bytes.Equal(got, goldenRegistry(t)) {
		t.Fatalf("the registry listed after first use differs from %s", registryGolden)
	}
}

// freshLookups is the lookup child of TestFreshRegistry.
func freshLookups(t *testing.T) {
	handWritten := registeredNow()
	for _, name := range handWritten {
		rest, ok := strings.CutPrefix(name, familyPrefix)
		if !ok {
			continue
		}
		if _, err := cachebench.ParsePattern(rest); err == nil {
			t.Errorf("hand-written entry %s is named like a family case", name)
		}
	}
	for _, name := range []string{"cachebench-matrix-full", "table3-lvp"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("Lookup(%s) missed", name)
		}
	}
	if _, ok := Lookup("no-such-scenario"); ok {
		t.Error("Lookup(no-such-scenario) hit")
	}
	if n := len(registeredNow()); n != len(handWritten) {
		t.Fatalf("lookups of hand-written names grew the registry from %d to %d entries", len(handWritten), n)
	}

	const name = "cachebench-faa-vu-aa-line"
	got, ok := Lookup(name)
	if !ok {
		t.Fatalf("Lookup(%s) missed before any listing", name)
	}
	var golden []Spec
	if err := json.Unmarshal(goldenRegistry(t), &golden); err != nil {
		t.Fatal(err)
	}
	var want *Spec
	for i := range golden {
		if golden[i].Name == name {
			want = &golden[i]
		}
	}
	if want == nil || !reflect.DeepEqual(got, *want) {
		t.Errorf("Lookup(%s) = %+v, want its %s entry", name, got, registryGolden)
	}
	if _, ok := Lookup("cachebench-nope-vu-aa-line"); ok {
		t.Error("Lookup(cachebench-nope-vu-aa-line) hit")
	}
	if n, want := len(Names()), len(handWritten)+len(cachebench.Family()); n != want {
		t.Errorf("registry lists %d entries, want %d hand-written + %d family",
			n, len(handWritten), len(cachebench.Family()))
	}
}

// freshRace is the race child of TestFreshRegistry: 8 goroutines,
// released together, each look up family names, list names and list
// specs, starting at a different one of the three, and must all see
// the same registry.
func freshRace(t *testing.T) {
	type view struct {
		names   []string
		all     []Spec
		lookups []Spec
	}
	family := []string{"cachebench-faa-vu-aa-line", "cachebench-aal-vu-aal-set", "cachebench-vu-faa-vu-line"}
	const workers = 8
	views := make([]view, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := &views[g]
			steps := []func(){
				func() {
					for _, name := range family {
						s, _ := Lookup(name)
						v.lookups = append(v.lookups, s)
					}
				},
				func() { v.names = Names() },
				func() { v.all = All() },
			}
			<-start
			for i := range steps {
				steps[(g+i)%len(steps)]()
			}
		}()
	}
	close(start)
	wg.Wait()
	for g := 1; g < workers; g++ {
		if !reflect.DeepEqual(views[g], views[0]) {
			t.Fatalf("goroutine %d saw a different registry from goroutine 0", g)
		}
	}
	listed := map[string]Spec{}
	for _, s := range views[0].all {
		listed[s.Name] = s
	}
	for i, s := range views[0].lookups {
		if want, ok := listed[family[i]]; !ok || !reflect.DeepEqual(s, want) {
			t.Errorf("Lookup(%s) = %+v, not its listed entry", family[i], s)
		}
	}
}

// registeredNow lists the registry's names as they stand, without the
// first use Names makes.
func registeredNow() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	return out
}

// goldenRegistry reads the registry golden.
func goldenRegistry(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(registryGolden)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
