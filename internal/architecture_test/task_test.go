package architecture_test

import (
	"strings"
	"testing"
)

// The shared task layer sits between the platform core and the two
// backends: engine and realexec build on it, never the reverse, and
// the components it drives never reach up into it.
func init() {
	rules = append(rules, rule{
		Name: "task-below-backends",
		Why:  "the per-attempt data plane is shared by both backends, so it must not depend on either, on the DES kernel, or on a service",
		From: []string{"task"},
		Deny: []string{"engine", "realexec", "sim", "sched", "serve", "ingest", "jobstore"},
	}, rule{
		Name: "core-below-task",
		Why:  "platform components and foundations are driven by the task layer, not the reverse",
		From: []string{"core", "sortmerge", "storage", "mr", "kvenc", "frame", "bytestore", "substrate"},
		Deny: []string{"task"},
	})
}

// TestTaskLayerRule is the task-layer self-check: planted imports
// across the task layer's boundaries are reported naming the file and
// the rule, and the legal tree of both backends importing task yields
// no findings.
func TestTaskLayerRule(t *testing.T) {
	planted := []struct{ file, imp, rule string }{
		{"internal/task/bad.go", "engine", "task-below-backends"},
		{"internal/task/bad.go", "realexec", "task-below-backends"},
		{"internal/task/bad.go", "sim", "task-below-backends"},
		{"internal/task/bad.go", "serve", "task-below-backends"},
		{"internal/core/bad.go", "task", "core-below-task"},
	}
	for _, tc := range planted {
		got := violations(fileImports{tc.file: {tc.imp}})
		if len(got) == 0 {
			t.Fatalf("planted violation %s → %s not caught", tc.file, tc.imp)
		}
		if !strings.Contains(got[0], tc.file) || !strings.Contains(got[0], tc.rule) {
			t.Fatalf("report %q does not name the violating file %s and rule %s", got[0], tc.file, tc.rule)
		}
	}
	legal := fileImports{
		"internal/engine/reducetask.go": {"core", "sim", "storage", "task"},
		"internal/realexec/realexec.go": {"core", "engine", "task"},
		"internal/task/reducer.go":      {"core", "kvenc", "mr", "sortmerge"},
		"internal/task/output.go":       {"core", "frame", "storage", "substrate"},
	}
	if got := violations(legal); len(got) != 0 {
		t.Fatalf("legal tree flagged: %v", got)
	}
}
