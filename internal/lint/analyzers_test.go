package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Each analyzer's testdata pins at least one true positive (a // want
// line) and at least one clean negative (the sanctioned shape of the
// same code, unannotated): CheckDir fails on any diagnostic without a
// want AND on any want without a diagnostic.

func TestLockScope(t *testing.T) {
	CheckDir(t, "testdata/src/lockscope", "lockscope", LockScope)
}

func TestTrustFlow(t *testing.T) {
	CheckDir(t, "testdata/src/trustflow", "trustflow", TrustFlow)
}

func TestClockCheck(t *testing.T) {
	// The import path's internal/core suffix opts the package into
	// clock enforcement, exactly as for the real repro/internal/core.
	CheckDir(t, "testdata/src/clockcheck", "clockcheck/internal/core", ClockCheck)
}

func TestClockCheckSkipsUninjectedPackages(t *testing.T) {
	// Same files under a path with no clock-injected suffix: the
	// analyzer must stay silent, so the only complaint CheckDir can
	// raise is the now-unmatched want annotation.
	pkg := loadTestPackage(t, "testdata/src/clockcheck", "clockcheck/plain")
	diags, err := Run([]*Package{pkg}, []*Analyzer{ClockCheck})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("clockcheck fired outside its packages: %v", diags)
	}
}

func TestEpochCheck(t *testing.T) {
	CheckDir(t, "testdata/src/epochcheck", "epochcheck", EpochCheck)
}

func TestMetricName(t *testing.T) {
	CheckDir(t, "testdata/src/metricname", "metricname", MetricName)
}

func TestSuppression(t *testing.T) {
	// Reasoned ignores (same-line, line-above, comma-list) silence the
	// named analyzers; a directive naming the wrong analyzer leaves the
	// finding standing (its want annotation proves it surfaced).
	CheckDir(t, "testdata/src/suppress", "suppress", MetricName, ClockCheck)
}

func TestSuppressionBare(t *testing.T) {
	pkg := loadTestPackage(t, "testdata/src/suppressbare", "suppressbare")
	diags, err := Run([]*Package{pkg}, []*Analyzer{MetricName})
	if err != nil {
		t.Fatal(err)
	}
	var sawMalformed, sawFinding bool
	for _, d := range diags {
		switch {
		case d.Analyzer == "sfvet" && strings.Contains(d.Message, "missing reason"):
			sawMalformed = true
		case d.Analyzer == "metricname" && strings.Contains(d.Message, "must end in _total"):
			sawFinding = true
		default:
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if !sawMalformed {
		t.Error("bare //sfvet:ignore was not reported as malformed")
	}
	if !sawFinding {
		t.Error("bare //sfvet:ignore suppressed the finding it sat on")
	}
}

// TestRepoIsClean is the self-check the CI job relies on: sf-vet must
// exit 0 over the whole repository, every exception carrying a
// reasoned //sfvet:ignore.
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks every package in the module")
	}
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(pkgs, All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("sf-vet finding: %s", d)
	}
}

// TestAnalyzersDocumented keeps the catalog and its documentation in
// step: the analyzers All() returns are exactly the backticked names
// in the first column of ARCHITECTURE.md's "Enforced invariants"
// table.
func TestAnalyzersDocumented(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile(filepath.Join(root, "docs", "ARCHITECTURE.md"))
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n## Enforced invariants")
	if !ok {
		t.Fatal(`ARCHITECTURE.md has no "Enforced invariants" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	documented := make(map[string]bool)
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 {
			continue
		}
		first := strings.TrimSpace(cells[1])
		if len(first) > 2 && first[0] == '`' && first[len(first)-1] == '`' {
			documented[first[1:len(first)-1]] = true
		}
	}
	registered := make(map[string]bool)
	for _, a := range All() {
		registered[a.Name] = true
		if !documented[a.Name] {
			t.Errorf("analyzer %q is missing from ARCHITECTURE.md's Enforced invariants table", a.Name)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("ARCHITECTURE.md's Enforced invariants table lists %q, which All() does not return", name)
		}
	}
}
