package ledger

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/atomicfile"
)

// State is one tenant's durable balance, in exact ledger units — the
// unit the two functions below negotiate, mirroring how
// store.EncodeRelease/DecodeRelease pin the release artifact format in
// one place. Budget is -1 for an unlimited tenant.
type State struct {
	Budget int64
	Spent  int64
	Epoch  uint64
}

// stateMagic versions the state file; bump it if the line set changes
// shape incompatibly.
const stateMagic = "privelet-ledger v1"

// EncodeState writes a tenant balance in the durable ledger format: a
// version line followed by one key=value line per field. Text rather
// than binary because the values are three integers an operator may
// legitimately want to audit with cat; the format is versioned and
// parsed strictly all the same.
func EncodeState(w io.Writer, st State) error {
	_, err := fmt.Fprintf(w, "%s\nbudget=%d\nspent=%d\nepoch=%d\n",
		stateMagic, st.Budget, st.Spent, st.Epoch)
	return err
}

// DecodeState reads a balance previously written by EncodeState,
// rejecting unknown versions, missing fields, and trailing garbage —
// a budget file that does not parse exactly is corrupt, and corrupt
// budget state must fail loudly (see New).
func DecodeState(r io.Reader) (State, error) {
	var st State
	sc := bufio.NewScanner(r)
	if !sc.Scan() || sc.Text() != stateMagic {
		return st, fmt.Errorf("ledger: bad or missing state header")
	}
	for _, key := range []string{"budget", "spent", "epoch"} {
		if !sc.Scan() {
			return st, fmt.Errorf("ledger: state truncated before %q", key)
		}
		var v int64
		if _, err := fmt.Sscanf(sc.Text(), key+"=%d", &v); err != nil {
			return st, fmt.Errorf("ledger: bad state line %q: %w", sc.Text(), err)
		}
		switch key {
		case "budget":
			st.Budget = v
		case "spent":
			st.Spent = v
		case "epoch":
			if v < 0 {
				return st, fmt.Errorf("ledger: negative epoch %d", v)
			}
			st.Epoch = uint64(v)
		}
	}
	if sc.Scan() {
		return st, fmt.Errorf("ledger: trailing state data %q", sc.Text())
	}
	return st, sc.Err()
}

// statePath is the tenant's state file under cfg.Dir.
func (l *Ledger) statePath(tenant string) string {
	return filepath.Join(l.cfg.Dir, tenant+fileExt)
}

// persist writes t's balance through to disk, atomically (encode to a
// temp file, then rename), so a reader — including recovery after a
// crash mid-write — always sees a complete committed state. Caller
// holds t.mu. A memory-only ledger persists nothing.
func (l *Ledger) persist(t *tenant) error {
	if l.cfg.Dir == "" {
		return nil
	}
	err := atomicfile.Write(l.statePath(t.name), func(w io.Writer) error {
		return EncodeState(w, State{Budget: t.budget, Spent: t.spent, Epoch: t.epoch})
	})
	if err != nil {
		return fmt.Errorf("ledger: persisting tenant %q: %w", t.name, err)
	}
	return nil
}

// readState loads one tenant's state file.
func (l *Ledger) readState(tenant string) (State, error) {
	f, err := os.Open(l.statePath(tenant))
	if err != nil {
		return State{}, err
	}
	defer f.Close()
	return DecodeState(f)
}
