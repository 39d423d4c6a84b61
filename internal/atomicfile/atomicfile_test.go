package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
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
	if _, err := os.Stat(path + TmpSuffix); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
}

func TestWriteFailureLeavesTargetUntouched(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
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
	if _, err := os.Stat(path + TmpSuffix); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
	if err := Write(filepath.Join(path, "not-a-dir", "x"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("creating under a regular file must fail")
	}
}
