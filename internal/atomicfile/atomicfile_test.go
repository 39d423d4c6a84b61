package atomicfile

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// assertNoTemps fails if any temporary sibling is left in dir.
func assertNoTemps(t *testing.T, dir string) {
	t.Helper()
	left, err := filepath.Glob(filepath.Join(dir, "*"+tmpSuffix))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("temporary files left behind: %v", left)
	}
}

func TestWriteReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	for _, body := range []string{"first", "second"} {
		if err := Write(path, func(w io.Writer) error {
			_, err := io.WriteString(w, body)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != body {
			t.Fatalf("after writing %q: read %q, %v", body, got, err)
		}
	}
	assertNoTemps(t, dir)
}

func TestWriteFailureLeavesTargetUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	if err := os.WriteFile(path, []byte("committed"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := Write(path, func(w io.Writer) error {
		io.WriteString(w, "torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Write = %v, want the encoder's error", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "committed" {
		t.Fatalf("failed write changed the target to %q", got)
	}
	assertNoTemps(t, dir)
	if err := Write(filepath.Join(path, "not-a-dir", "x"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("creating under a regular file must fail")
	}
}

// TestConcurrentWritersOfOnePath: writers of one path each stage a
// temporary of their own, so every Write succeeds, the file ends up
// holding exactly one writer's payload, and no temporary remains. With
// one shared temporary name, a writer's file could be renamed away
// under it.
func TestConcurrentWritersOfOnePath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	const writers = 8
	payloads := make([][]byte, writers)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 1<<20)
	}
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for i := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = Write(path, func(w io.Writer) error {
				_, err := w.Write(payloads[i])
				return err
			})
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("writer %d: %v", i, err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	matched := false
	for _, p := range payloads {
		matched = matched || bytes.Equal(got, p)
	}
	if !matched {
		t.Fatalf("file holds %d bytes that match no single writer's payload", len(got))
	}
	assertNoTemps(t, dir)
}

// TestWriteModeMatchesCreate: a written file gets os.Create's mode,
// 0666 under the umask, not the 0600 os.CreateTemp would give it.
func TestWriteModeMatchesCreate(t *testing.T) {
	dir := t.TempDir()
	ref, err := os.Create(filepath.Join(dir, "ref"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	path := filepath.Join(dir, "state")
	if err := Write(path, func(io.Writer) error { return nil }); err != nil {
		t.Fatal(err)
	}
	want, err := os.Stat(ref.Name())
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode() != want.Mode() {
		t.Fatalf("Write made mode %v, os.Create %v", got.Mode(), want.Mode())
	}
}

func TestIsTemp(t *testing.T) {
	for _, tc := range []struct {
		name string
		want bool
	}{
		{"c1.prvl.tmp", true},             // the old fixed name
		{"c1.prvl.3kq9x0e1b2c.tmp", true}, // Stage's name
		{"a~1.prvl.x.tmp", true},
		{"c1.prvl", false},
		{"c1.prvl.x", false},
		{"c1.tomb.tmp", false}, // staged for another extension
		{"c1.tmp", false},
		{"prvl.tmp", false},
	} {
		if got := IsTemp(tc.name, ".prvl"); got != tc.want {
			t.Errorf("IsTemp(%q, .prvl) = %v, want %v", tc.name, got, tc.want)
		}
	}
	// Stage's own names are recognised.
	dir := t.TempDir()
	tmp, err := Stage(filepath.Join(dir, "x.ledger"), func(io.Writer) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !IsTemp(filepath.Base(tmp), ".ledger") {
		t.Fatalf("IsTemp does not recognise Stage's %q", filepath.Base(tmp))
	}
}
