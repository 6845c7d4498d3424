package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickExperimentsPrintTheirShape builds congabench and runs the -quick
// experiments that need no packet simulation. Each must print its banner,
// one row per scheme where the figure compares schemes, and the "Paper
// shape:" line where it states one; an unknown -fig must exit 2 and point
// to -list.
func TestQuickExperimentsPrintTheirShape(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "congabench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	desc := map[string]string{}
	for _, e := range experiments {
		desc[e.id] = e.desc
	}
	rows := []struct {
		id      string
		schemes []string // each must start perRow rows
		perRow  int      // fig3 prints one row per scheme and case
		shape   bool
	}{
		{"fig2", []string{"ecmp", "local", "wcmp", "conga"}, 1, true},
		{"fig3", []string{"ecmp", "conga"}, 2, true},
		{"fig5", nil, 0, true},
		{"fig8", nil, 0, false},
		{"fig17", nil, 0, false},
		{"thm2", nil, 0, true},
	}
	for _, r := range rows {
		t.Run(r.id, func(t *testing.T) {
			out, err := exec.Command(bin, "-quick", "-fig", r.id).CombinedOutput()
			if err != nil {
				t.Fatalf("%v\n%s", err, out)
			}
			text := string(out)
			if banner := strings.ToUpper(r.id) + " — " + desc[r.id]; !strings.Contains(text, banner+"\n") {
				t.Errorf("no banner %q in:\n%s", banner, text)
			}
			for _, s := range r.schemes {
				n := 0
				for _, line := range strings.Split(text, "\n") {
					if f := strings.Fields(line); len(f) > 1 && f[0] == s {
						n++
					}
				}
				if n != r.perRow {
					t.Errorf("%d rows for scheme %s, want %d, in:\n%s", n, s, r.perRow, text)
				}
			}
			if got := strings.Contains(text, "\nPaper shape: "); got != r.shape {
				t.Errorf("Paper shape line printed: %v, want %v, in:\n%s", got, r.shape, text)
			}
		})
	}

	out, err := exec.Command(bin, "-fig", "nosuch").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), "-list") {
		t.Fatalf("-fig nosuch: %v, output %q; want exit status 2 and a pointer to -list", err, out)
	}
}
