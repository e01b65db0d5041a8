// Start-up allocation budgets of the registry. Like the other packages'
// allocbudget_test.go, the counts are only meaningful without the race
// detector's instrumentation.

//go:build !race

package scenario

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strconv"
	"testing"
)

// The registry's start-up budgets, in heap allocations. Package init
// registers only the hand-written entries (about 900 allocations); the
// first full listing builds the cache family as well, about 5 per entry.
const (
	initAllocBudget    = 2500
	listingAllocBudget = 6000
)

// TestInitAllocBudget bounds what every process that links the package
// pays before it reads the registry, and what the first full listing
// adds. Package init is read from a child's GODEBUG=inittrace=1 line,
// the listing's allocations from a fresh child that calls All. Both are
// counts, not times, so they hold on any machine.
func TestInitAllocBudget(t *testing.T) {
	if os.Getenv(childEnv) == "listing" {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		specs := All()
		runtime.ReadMemStats(&after)
		fmt.Printf("listing: %d specs, %d allocs\n", len(specs), after.Mallocs-before.Mallocs)
		return
	}

	out := runChild(t, "", "", "GODEBUG=inittrace=1")
	m := regexp.MustCompile(`init vpsec/internal/scenario @.*, (\d+) bytes, (\d+) allocs`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no init trace line for vpsec/internal/scenario in:\n%s", out)
	}
	if n, _ := strconv.Atoi(string(m[2])); n > initAllocBudget {
		t.Errorf("package init allocates %d times (%s bytes), budget %d", n, m[1], initAllocBudget)
	} else {
		t.Logf("package init: %d allocs, %s bytes", n, m[1])
	}

	out = runChild(t, "TestInitAllocBudget", "listing")
	m = regexp.MustCompile(`listing: (\d+) specs, (\d+) allocs`).FindSubmatch(out)
	if m == nil {
		t.Fatalf("no listing count in:\n%s", out)
	}
	if n, _ := strconv.Atoi(string(m[2])); n > listingAllocBudget {
		t.Errorf("the first listing of %s specs allocates %d times, budget %d", m[1], n, listingAllocBudget)
	} else {
		t.Logf("first listing of %s specs: %d allocs", m[1], n)
	}
}
