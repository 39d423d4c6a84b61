// Package atomicfile writes files all-or-nothing: the bytes go to a
// temporary sibling, which is then renamed over the target, so a reader
// — including recovery after a process crash mid-write — sees either
// the previous file or the complete new one, never a torn write. Every
// durable artifact of the serving tier goes through it: a store's spill
// files, each carrying a release's noisy matrix and its §V summed-area
// table, its tombstone markers for deleted releases, and the ledger's
// per-tenant ε balances that enforce sequential composition across
// republishes (§III).
package atomicfile

import (
	"io"
	"os"
)

// TmpSuffix names the temporary sibling Write encodes into. A crash can
// strand one; recovery code sweeps files with this suffix.
const TmpSuffix = ".tmp"

// Write atomically replaces path with the bytes encode writes. On any
// failure the temporary file is removed and path is left untouched.
func Write(path string, encode func(io.Writer) error) error {
	tmp := path + TmpSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = encode(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
