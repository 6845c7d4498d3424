package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchguard command: with
// BENCHGUARD_RUN_MAIN set it runs main() on its arguments, exit code and
// all, so the tests below gate on the real verdict.
func TestMain(m *testing.M) {
	if os.Getenv("BENCHGUARD_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runGuard(t *testing.T, args ...string) (out string, ok bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "BENCHGUARD_RUN_MAIN=1")
	b, err := cmd.CombinedOutput()
	if _, isExit := err.(*exec.ExitError); err != nil && !isExit {
		t.Fatal(err)
	}
	return string(b), err == nil
}

// TestEventsChangeVerdicts pins what benchguard says about a benchmark whose
// events/op moved with everything else equal: the gate fails it as a
// behavior change, -update refuses to launder it into a new baseline, and
// -update -expect-events-change records it with the change spelled out in
// the entry's note.
func TestEventsChangeVerdicts(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "base.json")
	output := filepath.Join(dir, "bench.txt")
	updated := filepath.Join(dir, "new.json")
	write := func(path, s string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(baseline, `{"benchmarks":{"BenchmarkCell":{"after":{"ns_op":5000,"events_op":100,"allocs_op":10,"normFCT":1.5}}}}`)
	write(output, "cpu: test\nBenchmarkCell-2   1   5000 ns/op   90 events/op   1.500 normFCT   10 allocs/op\nPASS\n")
	common := []string{"-baseline", baseline, "-require", "BenchmarkCell"}

	out, ok := runGuard(t, append(common, output)...)
	if want := "benchguard: FAIL BenchmarkCell events/op: 90 vs baseline 100 (-10.00%, exact match required — simulation behavior changed)"; ok || !strings.Contains(out, want) {
		t.Errorf("gate: ok=%v, output lacks %q:\n%s", ok, want, out)
	}

	out, ok = runGuard(t, append(common, "-update", updated, output)...)
	if want := "refusing to update: events/op changed vs " + baseline + " for:\n  BenchmarkCell: 100 -> 90 (-10.0%)"; ok || !strings.Contains(out, want) {
		t.Errorf("update without the flag: ok=%v, output lacks %q:\n%s", ok, want, out)
	}
	if _, err := os.Stat(updated); err == nil {
		t.Error("update without -expect-events-change still wrote a baseline")
	}

	out, ok = runGuard(t, append(common, "-update", updated, "-expect-events-change", output)...)
	if want := "benchguard: events/op change: BenchmarkCell: 100 -> 90 (-10.0%)"; !ok || !strings.Contains(out, want) {
		t.Fatalf("update with the flag: ok=%v, output lacks %q:\n%s", ok, want, out)
	}
	raw, err := os.ReadFile(updated)
	if err != nil {
		t.Fatal(err)
	}
	var got baselineFile
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	entry := got.Benchmarks["BenchmarkCell"]
	if entry == nil || entry.After["events_op"] != 90 || entry.After["normFCT"] != 1.5 ||
		entry.Note != "events/op changed from 100 (-10.0%) — acknowledged via -expect-events-change" {
		t.Errorf("updated entry = %+v", entry)
	}
	if got.Environment["cpu"] != "test" {
		t.Errorf("environment block = %v, want the output header's cpu", got.Environment)
	}

	// The regenerated baseline gates the same output clean.
	if out, ok = runGuard(t, "-baseline", updated, "-require", "BenchmarkCell", output); !ok {
		t.Errorf("gate against the updated baseline failed:\n%s", out)
	}
}

// TestBaselineIsRequired: with no -baseline the gate refuses to run and says
// where the current record is named, instead of gating against a stale one.
func TestBaselineIsRequired(t *testing.T) {
	out, ok := runGuard(t, filepath.Join(t.TempDir(), "bench.txt"))
	if want := "-baseline is required"; ok || !strings.Contains(out, want) || !strings.Contains(out, "bench-guard") {
		t.Errorf("benchguard without -baseline: ok=%v, output %q, want a failure naming the Makefile targets", ok, out)
	}
}
