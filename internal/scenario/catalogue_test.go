package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ibcbench/examples"
	"ibcbench/internal/metrics"
)

// catalogueSpec parses one spec of the embedded catalogue
// (examples/scenarios) by name.
func catalogueSpec(t *testing.T, name string) Spec {
	t.Helper()
	data, ok := examples.File(name)
	if !ok {
		t.Fatalf("catalogue has no scenario %q", name)
	}
	s, err := Parse(data)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return s
}

// TestExampleSpecsCompile keeps the committed examples/scenarios files
// lint clean: each parses, compiles, is named after its file stem and
// is canonical. Rewrite them canonically with
// UPDATE_GOLDEN=1 go test ./internal/scenario -run ExampleSpecs.
func TestExampleSpecsCompile(t *testing.T) {
	files, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no example specs found: %v", err)
	}
	if len(files) != len(examples.Names()) {
		t.Fatalf("%d spec files on disk, %d embedded", len(files), len(examples.Names()))
	}
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if os.Getenv("UPDATE_GOLDEN") != "" {
			spec, err := Parse(data)
			if err != nil {
				t.Fatalf("parse %s: %v", file, err)
			}
			enc, err := Encode(spec)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, enc, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := Lint(strings.TrimSuffix(filepath.Base(file), ".json"), data); err != nil {
			t.Errorf("%s: %v", file, err)
		}
	}
}

// TestRegistryLint pins Lint's rejections, one broken file per check.
// Parse validates, and a spec that validates compiles, so an invalid
// topology already fails at parse.
func TestRegistryLint(t *testing.T) {
	good, ok := examples.File("quickstart")
	if !ok {
		t.Fatal("quickstart missing from the catalogue")
	}
	if err := Lint("quickstart", good); err != nil {
		t.Fatalf("quickstart: %v", err)
	}
	for name, c := range map[string]struct {
		stem, data, want string
	}{
		"parse":     {"x", `{"name":"x","bogus":1}`, "parse"},
		"invalid":   {"x", `{"name":"x","topology":{"preset":"ring:3"}}`, "unknown topology"},
		"stem":      {"other", strings.Replace(string(good), `"quickstart"`, `"other-name"`, 1), "file stem"},
		"canonical": {"quickstart", strings.ReplaceAll(string(good), "  ", "\t"), "not canonical"},
	} {
		err := Lint(c.stem, []byte(c.data))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Lint = %v, want an error containing %q", name, err, c.want)
		}
	}
}

// TestShortBuiltinsHoldAssertions runs every catalogue spec end to end,
// as `ibcbench suite` does: the run succeeds, traffic completes, and
// every assertion holds. The whole catalogue is short (well under a
// second on two cores), which is why `suite` needs no smoke subset.
func TestShortBuiltinsHoldAssertions(t *testing.T) {
	for _, name := range examples.Names() {
		s := catalogueSpec(t, name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep, err := Run(s, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations {
				t.Errorf("violation: %s", v)
			}
			total := rep.Result.Total[metrics.StatusCompleted] + rep.Result.RoutesCompleted
			if total == 0 {
				t.Error("spec completed no traffic")
			}
		})
	}
}
