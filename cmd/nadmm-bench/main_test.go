package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestUsageErrors builds the command and pins that a positional
// argument (a former subcommand) exits 2 with one line on stderr that
// names the argument and what to do instead.
func TestUsageErrors(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "nadmm-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	const pointer = "bash bench/run.sh --workload <name>"
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"serve", "-compare"}, `"serve"`},
		{[]string{"sim", "-all"}, `"sim"`},
	}
	for _, c := range cases {
		var stderr bytes.Buffer
		cmd := exec.Command(bin, c.args...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%v: err = %v, want exit status 2", c.args, err)
		}
		msg := strings.TrimRight(stderr.String(), "\n")
		if !strings.Contains(msg, c.want) || !strings.Contains(msg, pointer) || strings.Contains(msg, "\n") {
			t.Errorf("%v: stderr = %q, want one line containing %q and %q", c.args, msg, c.want, pointer)
		}
	}
}
