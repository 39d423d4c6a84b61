package codec

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/dataset"
	"repro/internal/matrix"
	"repro/internal/query"
	"repro/internal/rng"
)

// withTable upgrades a payload to carry its summed-area table — what
// every v2 producer (the store's Put, Release.Save) does.
func withTable(p *Payload) *Payload {
	pre := p.Noisy.Clone()
	pre.PrefixSumExec(1)
	p.Table = pre
	p.Total = p.Noisy.Total()
	return p
}

func encodeBytes(t testing.TB, p *Payload) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTripV2(t *testing.T) {
	p := withTable(samplePayload(t))
	raw := encodeBytes(t, p)
	if v := uint16(raw[4]) | uint16(raw[5])<<8; v != 2 {
		t.Fatalf("payload with table encoded as version %d, want 2", v)
	}
	got, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Table == nil {
		t.Fatal("v2 decode dropped the table")
	}
	if !got.Noisy.AlmostEqual(p.Noisy, 0) || !got.Table.AlmostEqual(p.Table, 0) {
		t.Fatal("v2 round trip lost float precision")
	}
	if got.Total != p.Total {
		t.Fatalf("total: got %v want %v", got.Total, p.Total)
	}
}

func TestDecodeMappedZeroCopy(t *testing.T) {
	p := withTable(samplePayload(t))
	raw := encodeBytes(t, p)
	// An 8-aligned buffer, as mmapfile guarantees for both its paths.
	aligned := make([]float64, (len(raw)+7)/8)
	buf := alignedBytes(aligned, len(raw))
	copy(buf, raw)
	got, info, err := DecodeMapped(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Noisy || !info.Table {
		t.Fatalf("aligned little-endian buffer should map zero-copy, got %+v", info)
	}
	if !got.Noisy.AlmostEqual(p.Noisy, 0) || !got.Table.AlmostEqual(p.Table, 0) || got.Total != p.Total {
		t.Fatal("mapped decode lost float precision")
	}
	if got.Meta != p.Meta {
		t.Fatalf("mapped meta: %+v vs %+v", got.Meta, p.Meta)
	}
	// The mapped matrices alias the buffer: same values as a copying
	// decode (misaligned input), zero decode work for the float sections.
	shifted := make([]byte, len(raw)+1)
	copy(shifted[1:], raw)
	copied, err := decode(shifted[1:])
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got.Table.Data() {
		if v != copied.Table.Data()[i] {
			t.Fatalf("mapped table entry %d differs from copying decode", i)
		}
	}
}

func TestDecodeMappedMisaligned(t *testing.T) {
	p := withTable(samplePayload(t))
	raw := encodeBytes(t, p)
	// Force misalignment by shifting the payload one byte into a fresh
	// buffer: the decode must fall back to copying, not fail or tear.
	shifted := make([]byte, len(raw)+1)
	copy(shifted[1:], raw)
	got, info, err := DecodeMapped(shifted[1:], nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Noisy || info.Table {
		t.Fatalf("misaligned buffer must not map zero-copy, got %+v", info)
	}
	if !got.Table.AlmostEqual(p.Table, 0) || got.Total != p.Total {
		t.Fatal("misaligned fallback lost float precision")
	}
}

func TestDecodeMappedV1(t *testing.T) {
	p := samplePayload(t)
	raw := encodeBytes(t, p)
	got, info, err := DecodeMapped(raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Noisy || info.Table || got.Table != nil {
		t.Fatalf("v1 mapped decode: info=%+v table=%v", info, got.Table)
	}
	if !got.Noisy.AlmostEqual(p.Noisy, 0) {
		t.Fatal("v1 mapped decode lost precision")
	}
}

// tailBoundaries locates the v2 section breaks in an encoded stream:
// matrixEnd is the first byte after the matrix entries (the table pad's
// length byte), tableStart the first table-entry byte. Derived from the
// v1 length of the same payload (v2 shares the header through dims,
// then inserts a pad before the matrix entries).
func tailBoundaries(t *testing.T, raw []byte, p *Payload) (matrixEnd, tableStart int) {
	t.Helper()
	n := p.Noisy.Len()
	var buf bytes.Buffer
	bare := *p
	bare.Table = nil
	if err := Encode(&buf, &bare); err != nil {
		t.Fatal(err)
	}
	headerLen := buf.Len() - n*8
	matrixEnd = headerLen + 1 + int(raw[headerLen]) + n*8
	tableStart = matrixEnd + 1 + int(raw[matrixEnd])
	return matrixEnd, tableStart
}

func TestV2TableCorruptionFailsLoudly(t *testing.T) {
	p := withTable(samplePayload(t))
	raw := encodeBytes(t, p)
	matrixEnd, tableStart := tailBoundaries(t, raw, p)
	// Flip one bit in the table pad's length byte and in every 13th byte
	// of table/total/crc/end: the decode must return the intact payload
	// with an error wrapping ErrTable — never a silently wrong table,
	// never a panic. (The pad's zero filler is skipped, not verified, so
	// flips there are invisible by design and excluded.)
	positions := []int{matrixEnd}
	for pos := tableStart; pos < len(raw); pos += 13 {
		positions = append(positions, pos)
	}
	for _, pos := range positions {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x10
		got, err := decode(mut)
		if err == nil {
			t.Fatalf("bit flip at %d decoded cleanly", pos)
		}
		if !errors.Is(err, ErrTable) {
			t.Fatalf("bit flip at %d: error %v does not wrap ErrTable", pos, err)
		}
		if got == nil || got.Table != nil {
			t.Fatalf("bit flip at %d: payload %v should be intact and table-less", pos, got)
		}
		if !got.Noisy.AlmostEqual(p.Noisy, 0) {
			t.Fatalf("bit flip at %d corrupted the matrix section's decode", pos)
		}
	}
}

func TestV2TruncatedTail(t *testing.T) {
	p := withTable(samplePayload(t))
	raw := encodeBytes(t, p)
	matrixEnd, _ := tailBoundaries(t, raw, p)
	for cut := matrixEnd; cut < len(raw); cut += 17 {
		got, err := decode(raw[:cut])
		if err == nil || !errors.Is(err, ErrTable) {
			t.Fatalf("truncation at %d: err=%v, want ErrTable wrap", cut, err)
		}
		if got == nil || got.Table != nil {
			t.Fatalf("truncation at %d: payload should survive table-less", cut)
		}
	}
	// Truncation inside the header or matrix is a hard error, no payload
	// contract.
	for cut := 0; cut < matrixEnd; cut += 7 {
		if _, err := decode(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}

func TestEncodeTableDimsMismatch(t *testing.T) {
	p := samplePayload(t)
	p.Table = matrix.MustNew(3, 2)
	if err := Encode(bytes.NewBuffer(nil), p); err == nil {
		t.Fatal("mismatched table dims should fail to encode")
	}
}

func TestDeterministicEncodingV2(t *testing.T) {
	a := encodeBytes(t, withTable(samplePayload(t)))
	b := encodeBytes(t, withTable(samplePayload(t)))
	if !bytes.Equal(a, b) {
		t.Fatal("v2 encoding is not deterministic")
	}
}

// TestEncodeByteOrderPaths encodes one v2 payload through the
// big-endian host's conversion loop and through the little-endian
// host's one-write path and requires identical bytes, so the loop stays
// tested on little-endian machines. The 64×40 matrix spans three
// conversion chunks, the last one partial, and holds -0, ±Inf and a NaN.
func TestEncodeByteOrderPaths(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("the one-write path writes host order, which is the wire order only on little-endian hosts")
	}
	m := matrix.MustNew(64, 40)
	r := rng.New(11)
	data := m.Data()
	for i := range data {
		data[i] = r.Float64()*1e6 - 5e5
	}
	data[1], data[1030], data[2047], data[2559] = math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()
	p := withTable(&Payload{
		Meta:   Meta{Mechanism: "privelet+", Epsilon: 0.5, Rho: 3, Lambda: 6, Bound: 99},
		Schema: dataset.MustSchema(dataset.OrdinalAttr("A", 64), dataset.OrdinalAttr("B", 40)),
		Noisy:  m,
	})
	defer func(le bool) { hostLittleEndian = le }(hostLittleEndian)
	var out [2][]byte
	for i, le := range []bool{false, true} {
		hostLittleEndian = le
		out[i] = encodeBytes(t, p)
	}
	if !bytes.Equal(out[0], out[1]) {
		t.Fatalf("conversion loop and one-write path disagree (%d vs %d bytes)", len(out[0]), len(out[1]))
	}
	if _, err := decode(out[1]); err != nil {
		t.Fatal(err)
	}
}

func TestSizeOverheadV2(t *testing.T) {
	p := withTable(samplePayload(t))
	raw := encodeBytes(t, p)
	matrixBytes := p.Noisy.Len() * 8
	// v2 = two float sections plus a small constant tail.
	if len(raw) > 2*matrixBytes+1024 {
		t.Fatalf("v2 encoded size %d far exceeds 2×matrix payload %d", len(raw), matrixBytes)
	}
}

// pinnedGolden mirrors goldengen's JSON: query specs with bit-exact
// expected answers rendered as hex float64.
type pinnedGolden struct {
	File    string `json:"file"`
	Total   string `json:"total_hex"`
	Answers []struct {
		Spec   string `json:"spec"`
		HexVal string `json:"hex_val"`
	} `json:"answers"`
}

func hexFloat(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parsing pinned hex float %q: %v", s, err)
	}
	return v
}

// TestGoldenV1Compat pins the "old artifacts keep loading" promise:
// format-v1 files written by the pre-v2 encoder (checked into testdata,
// generated by that encoder verbatim) must decode, re-encode
// bit-identically, map-decode, and answer every pinned query with the
// exact float64 the original code produced — forever.
func TestGoldenV1Compat(t *testing.T) {
	for _, base := range []string{"sample_v1", "flat_v1"} {
		t.Run(base, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("testdata", base+".prvl"))
			if err != nil {
				t.Fatal(err)
			}
			var pin pinnedGolden
			js, err := os.ReadFile(filepath.Join("testdata", base+"_answers.json"))
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(js, &pin); err != nil {
				t.Fatal(err)
			}
			p, err := decode(raw)
			if err != nil {
				t.Fatalf("golden v1 no longer decodes: %v", err)
			}
			if p.Table != nil {
				t.Fatal("v1 golden decoded with a table")
			}
			// Table-less payloads still encode as v1, bit-identically to
			// the pre-v2 encoder.
			if got := encodeBytes(t, p); !bytes.Equal(got, raw) {
				t.Fatalf("re-encoding the v1 golden changed its bytes (%d vs %d)", len(got), len(raw))
			}
			// The mapped entry point reads v1 too (heap copies).
			mp, info, err := DecodeMapped(raw, nil)
			if err != nil || info.Noisy || info.Table {
				t.Fatalf("mapped v1 decode: err=%v info=%+v", err, info)
			}
			// Both decodes answer the pinned queries bit-exactly, through
			// a freshly built evaluator — the reload path a v1 file takes.
			for _, payload := range []*Payload{p, mp} {
				eval := query.NewEvaluator(payload.Noisy)
				if got, want := eval.Total(), hexFloat(t, pin.Total); got != want {
					t.Fatalf("total drifted: got %x want %x", got, want)
				}
				for _, a := range pin.Answers {
					q, err := query.Parse(payload.Schema, a.Spec)
					if err != nil {
						t.Fatalf("pinned spec %q: %v", a.Spec, err)
					}
					got, err := eval.Count(q)
					if err != nil {
						t.Fatal(err)
					}
					if want := hexFloat(t, a.HexVal); got != want {
						t.Fatalf("answer for %q drifted: got %x want %x", a.Spec, got, want)
					}
				}
			}
		})
	}
}

// TestGoldenV1UpgradeRoundTrip proves the upgrade path: a v1 golden
// decoded, given its table, and re-encoded becomes a v2 stream whose
// mapped decode answers bit-identically to the v1 original.
func TestGoldenV1UpgradeRoundTrip(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "sample_v1.prvl"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	v1Eval := query.NewEvaluator(p.Noisy)
	v2raw := encodeBytes(t, withTable(p))
	up, _, err := DecodeMapped(v2raw, nil)
	if err != nil {
		t.Fatal(err)
	}
	v2Eval := query.NewEvaluatorFromTable(up.Table, up.Total)
	q, err := query.Parse(up.Schema, "Age=1..3")
	if err != nil {
		t.Fatal(err)
	}
	a1, err1 := v1Eval.Count(q)
	a2, err2 := v2Eval.Count(q)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if a1 != a2 {
		t.Fatalf("upgraded answer drifted: %x vs %x", a2, a1)
	}
}

// alignedBytes views a float64 slice as bytes — the allocator aligns
// float64 backing to 8, so the result is guaranteed 8-byte aligned.
func alignedBytes(words []float64, n int) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)[:n]
}
