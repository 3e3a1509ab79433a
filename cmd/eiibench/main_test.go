package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestOnlyRunsTheSelectedExperiment(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", " e3 "}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	out := stdout.String()
	if n := strings.Count("\n"+out, "\n== E"); n != 1 || !strings.HasPrefix(out, "== E3: ") {
		t.Errorf("-only e3 printed %d tables:\n%s", n, out)
	}
}

func TestUnknownIDIsAUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "E3,E99"}, &stdout, &stderr); code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("an unknown ID must stop the run before any table prints, got:\n%s", stdout.String())
	}
	msg := stderr.String()
	if !strings.Contains(msg, `"E99"`) || !strings.Contains(msg, strings.Join(experiments.IDs(), ", ")) {
		t.Errorf("stderr %q does not name E99 and the valid IDs", msg)
	}
	if code := run([]string{"-scale", "huge"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown scale: exit %d, want 2", code)
	}
}
