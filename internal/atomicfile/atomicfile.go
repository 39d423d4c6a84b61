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
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
)

// tmpSuffix ends every temporary sibling's name.
const tmpSuffix = ".tmp"

// Stage writes the bytes encode produces into a new temporary sibling
// of path, named <base>.<random>.tmp, and returns its name; the caller
// renames it over path, or removes it. Each call gets a file of its own
// (O_EXCL), so two writers of one path never share a temporary. The
// file is created 0666 under the umask, like os.Create. On any failure
// the temporary is removed and the error returned.
func Stage(path string, encode func(io.Writer) error) (string, error) {
	tmp := path + "." + strconv.FormatUint(rand.Uint64(), 36) + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return "", err
	}
	err = encode(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return "", err
	}
	return tmp, nil
}

// Write atomically replaces path with the bytes encode writes: Stage,
// then a rename. On any failure the temporary file is removed and path
// is left untouched.
func Write(path string, encode func(io.Writer) error) error {
	tmp, err := Stage(path, encode)
	if err == nil {
		if err = os.Rename(tmp, path); err != nil {
			os.Remove(tmp)
		}
	}
	return err
}

// IsTemp reports whether the file name is a temporary staged for a file
// with the extension ext: Stage's <base>.<random>.tmp, or <base>.tmp,
// the one fixed name earlier versions of Write used. A crash can strand
// either, and recovery code sweeps them.
func IsTemp(name, ext string) bool {
	return strings.HasSuffix(name, tmpSuffix) && strings.Contains(name, ext+".")
}
