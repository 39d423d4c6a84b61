package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	privelet "repro"
)

// bin is the privelet binary under test, built once by TestMain.
var bin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "privelet-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(dir, "privelet")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building privelet: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestLedgerBudgetSpansRuns drives one -ledger-dir through four
// publishes under -budget 1: two fit, the third is refused, and a run
// that fails on its input gets its charge back, so the next run still
// fits and takes the next epoch.
func TestLedgerBudgetSpansRuns(t *testing.T) {
	dir := t.TempDir()
	ledgerDir := filepath.Join(dir, "ledger")
	csv := func(name, rows string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(rows), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := csv("good.csv", "0\n1\n2\n3\n")
	outOfDomain := csv("bad.csv", "0\n8\n")
	run := func(eps, in string) (string, int) {
		t.Helper()
		cmd := exec.Command(bin, "-schema", "Age:ordinal:8", "-epsilon", eps,
			"-budget", "1", "-ledger-dir", ledgerDir, "-in", in)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case err == nil:
			return stderr.String(), 0
		case errors.As(err, &exit):
			return stderr.String(), exit.ExitCode()
		}
		t.Fatalf("running privelet: %v", err)
		return "", 0
	}
	published := func(eps, in, want string) {
		t.Helper()
		msg, code := run(eps, in)
		if code != 0 || !strings.Contains(msg, "privelet: tenant default "+want+"\n") {
			t.Fatalf("-epsilon %s: exit %d, stderr %q; want %q", eps, code, msg, want)
		}
	}
	failed := func(eps, in, want string) {
		t.Helper()
		msg, code := run(eps, in)
		if code != 1 || !strings.Contains(msg, want) {
			t.Fatalf("-epsilon %s: exit %d, stderr %q; want exit 1 naming %q", eps, code, msg, want)
		}
	}

	published("0.4", good, "epoch 1, ε remaining 0.6")
	published("0.4", good, "epoch 2, ε remaining 0.2")
	failed("0.4", good, "privacy budget exhausted")
	failed("0.1", outOfDomain, "out of domain")
	published("0.1", good, "epoch 3, ε remaining 0.1")
}

// TestLedgerUnwritableOutputSpendsNothing: a run whose -out cannot be
// created fails before the ledger charges, so the ledger directory
// still reads nothing spent and no epoch taken. A run whose -save can
// be created but whose -out cannot also removes the -save file it made.
func TestLedgerUnwritableOutputSpendsNothing(t *testing.T) {
	dir := t.TempDir()
	ledgerDir := filepath.Join(dir, "ledger")
	in := filepath.Join(dir, "good.csv")
	if err := os.WriteFile(in, []byte("0\n1\n2\n3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	save := filepath.Join(dir, "release.prvl")
	cmd := exec.Command(bin, "-schema", "Age:ordinal:8", "-epsilon", "0.4", "-budget", "1",
		"-ledger-dir", ledgerDir, "-in", in, "-save", save, "-out", filepath.Join(dir, "missing", "out.csv"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatalf("run with an unwritable -out succeeded; stderr %q", stderr.String())
	}
	if _, err := os.Stat(save); !os.IsNotExist(err) {
		t.Fatalf("failed run left its -save file behind: %v", err)
	}
	led, err := privelet.NewLedger(ledgerDir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b := led.Balance("default"); b.Spent != 0 || b.Epoch != 0 {
		t.Fatalf("failed run charged the ledger: %+v", b)
	}
}
