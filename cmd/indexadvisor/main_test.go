package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// argsEnv carries the command line of a re-executed test binary that runs
// main instead of the tests, so a test can observe exit codes and stderr.
const argsEnv = "INDEXADVISOR_TEST_ARGS"

func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(argsEnv); ok {
		os.Args = append([]string{"indexadvisor"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command in a child process and returns its exit code,
// stdout and stderr.
func runMain(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), argsEnv+"="+strings.Join(args, "\n"))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	default:
		t.Fatal(err)
		return 0, "", ""
	}
}

// Fleet mode carries no gap, time limit, candidate set, trace or provenance.
// Setting any of those flags explicitly exits 2 and names every one of
// them, instead of tuning the fleet as if it had not been set; the
// process-wide -log-level is honored.
func TestFleetRejectsUnhonoredFlags(t *testing.T) {
	dir := t.TempDir()
	writeNearCloneFleet(t, dir, 1, 2)

	code, _, stderr := runMain(t, "-fleet", dir, "-strategy", "cophy", "-timelimit", "1ns")
	if code != 2 || !strings.Contains(stderr, "-timelimit") {
		t.Fatalf("-fleet -timelimit 1ns: exit %d, stderr %q; want exit 2 naming -timelimit", code, stderr)
	}
	code, _, stderr = runMain(t, "-fleet", dir, "-gap", "0.5", "-candidates", "5", "-steps", "-explain",
		"-trace-out", dir+"/trace.jsonl", "-trace-rotate-bytes", "1000")
	want := "-candidates, -explain, -gap, -steps, -trace-out, -trace-rotate-bytes"
	if code != 2 || !strings.Contains(stderr, want) {
		t.Fatalf("fleet with six unhonored flags: exit %d, stderr %q; want exit 2 naming %s", code, stderr, want)
	}

	// Defaults do not count, and the flags fleet mode honors pass.
	code, stdout, stderr := runMain(t, "-fleet", dir, "-strategy", "cophy", "-json",
		"-budget-share", "0.3", "-parallelism", "1", "-log-level", "debug")
	if code != 0 || !strings.Contains(stdout, `"tenants"`) {
		t.Fatalf("plain fleet run: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "level=DEBUG") {
		t.Fatalf("-log-level debug printed no debug log in fleet mode: stderr %q", stderr)
	}
}
