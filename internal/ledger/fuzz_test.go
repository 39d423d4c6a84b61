package ledger

// Native fuzz target for the ledger's state-file decoder. A state file
// is read back at every restart, and a wrong balance is a privacy bug,
// so DecodeState must fail cleanly on arbitrary bytes, every state it
// accepts must survive an EncodeState round trip unchanged, and no
// input may ever yield a negative epoch. The seed corpus lives under
// testdata/fuzz/FuzzDecodeState; CI runs a short -fuzz smoke on top of
// it.

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

func FuzzDecodeState(f *testing.F) {
	for _, seed := range []string{
		"",
		stateMagic + "\nbudget=-1\nspent=0\nepoch=0\n",
		stateMagic + "\nbudget=1000000\nspent=1000000\nepoch=9223372036854775807\n",
		stateMagic + "\nbudget=1\nspent=0\nepoch=-1\n",
		"privelet-ledger v2\nbudget=1\nspent=0\nepoch=0\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := DecodeState(bytes.NewReader(data))
		if err != nil {
			// Rejected input: failing cleanly is the whole property.
			return
		}
		// The epoch is parsed as an int64 and negatives are refused, so
		// an accepted one always fits back into an int64.
		if st.Epoch > math.MaxInt64 {
			t.Fatalf("accepted epoch %d does not fit an int64", st.Epoch)
		}
		var buf bytes.Buffer
		if err := EncodeState(&buf, st); err != nil {
			t.Fatalf("EncodeState on accepted state: %v", err)
		}
		enc := buf.String()
		back, err := DecodeState(strings.NewReader(enc))
		if err != nil {
			t.Fatalf("re-reading encoded state %q: %v", enc, err)
		}
		if back != st {
			t.Fatalf("state %+v round-tripped to %+v", st, back)
		}
		// The same state with its epoch negated must be refused.
		epochLine := fmt.Sprintf("epoch=%d\n", st.Epoch)
		neg := strings.Replace(enc, epochLine, fmt.Sprintf("epoch=%d\n", -1-int64(st.Epoch)), 1)
		if _, err := DecodeState(strings.NewReader(neg)); err == nil {
			t.Fatalf("negative epoch accepted: %q", neg)
		}
	})
}
