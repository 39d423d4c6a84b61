package cli

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func TestParseSchemaOrdinal(t *testing.T) {
	s, err := ParseSchema("Age:ordinal:101")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumAttrs() != 1 || s.Attr(0).Name != "Age" || s.Attr(0).Size != 101 {
		t.Fatalf("parsed %+v", s.Attr(0))
	}
	if s.Attr(0).Kind != dataset.Ordinal {
		t.Error("kind should be ordinal")
	}
}

func TestParseSchemaNominalFlat(t *testing.T) {
	s, err := ParseSchema("Gender:nominal:flat:2")
	if err != nil {
		t.Fatal(err)
	}
	a := s.Attr(0)
	if a.Kind != dataset.Nominal || a.Size != 2 || a.Hier.Height() != 2 {
		t.Fatalf("parsed %+v (height %d)", a, a.Hier.Height())
	}
}

func TestParseSchemaNominalThreeLevel(t *testing.T) {
	s, err := ParseSchema("Occ:nominal:3level:16x32")
	if err != nil {
		t.Fatal(err)
	}
	a := s.Attr(0)
	if a.Size != 512 || a.Hier.Height() != 3 {
		t.Fatalf("parsed size %d height %d", a.Size, a.Hier.Height())
	}
	if a.Hier.Root().Fanout() != 16 {
		t.Fatalf("groups = %d", a.Hier.Root().Fanout())
	}
}

func TestParseSchemaMulti(t *testing.T) {
	s, err := ParseSchema("Age:ordinal:64, Gender:nominal:flat:2 ,Occ:nominal:3level:8x8,Income:ordinal:64")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumAttrs() != 4 {
		t.Fatalf("attrs = %d", s.NumAttrs())
	}
	if s.DomainSize() != 64*2*64*64 {
		t.Fatalf("domain = %d", s.DomainSize())
	}
}

func TestParseSchemaErrors(t *testing.T) {
	cases := []string{
		"",
		"Age",
		"Age:ordinal",
		"Age:ordinal:abc",
		"Age:ordinal:0",
		":ordinal:5",
		"X:nominal:flat",
		"X:nominal:flat:x",
		"X:nominal:flat:0",
		"X:nominal:3level:16",
		"X:nominal:3level:0x5",
		"X:nominal:pyramid:3",
		"X:fancy:3",
		"A:ordinal:4,A:ordinal:4", // duplicate name caught by schema
		// Trailing input after a clause's last part.
		"A:ordinal:8:junk",
		"Occ:nominal:flat:4:extra",
		"Occ:nominal:3level:8x8zzz",
		"Occ:nominal:3level:2x3x4",
		"Occ:nominal:3level: 2x3",
	}
	for _, spec := range cases {
		if _, err := ParseSchema(spec); err == nil {
			t.Errorf("ParseSchema(%q) should fail", spec)
		}
	}
}

func TestReadTable(t *testing.T) {
	s, err := ParseSchema("A:ordinal:4,B:nominal:flat:3")
	if err != nil {
		t.Fatal(err)
	}
	in := "0,1\n3,2\n\n 2 , 0 \n"
	tbl := dataset.NewTable(s)
	if err := ReadRows(s, strings.NewReader(in), tbl.Append); err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 3 {
		t.Fatalf("rows = %d, want 3 (blank line skipped)", tbl.Len())
	}
	row := tbl.Row(2, nil)
	if row[0] != 2 || row[1] != 0 {
		t.Fatalf("row 2 = %v", row)
	}
}

func TestReadRowsStreams(t *testing.T) {
	s, err := ParseSchema("A:ordinal:4,B:nominal:flat:3")
	if err != nil {
		t.Fatal(err)
	}
	in := "0,1\n3,2\n\n 2 , 0 \n"
	var got [][]int
	err = ReadRows(s, strings.NewReader(in), func(vals ...int) error {
		// The sink contract: vals is reused, so retainers must copy.
		got = append(got, append([]int(nil), vals...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, {3, 2}, {2, 0}}
	if len(got) != len(want) {
		t.Fatalf("rows = %v, want %v", got, want)
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("row %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestReadRowsSinkError(t *testing.T) {
	s, err := ParseSchema("A:ordinal:4")
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	err = ReadRows(s, strings.NewReader("0\n1\n2\n"), func(...int) error {
		calls++
		if calls == 2 {
			return errBoom
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("err = %v, want line-2 sink error", err)
	}
	if calls != 2 {
		t.Fatalf("sink called %d times after error, want 2", calls)
	}
}

var errBoom = fmt.Errorf("boom")

func TestReadTableErrors(t *testing.T) {
	s, err := ParseSchema("A:ordinal:4,B:ordinal:4")
	if err != nil {
		t.Fatal(err)
	}
	cases := []string{
		"1\n",     // too few fields
		"1,2,3\n", // too many fields
		"1,x\n",   // not an integer
		"1,9\n",   // out of domain
		"-1,0\n",  // negative
	}
	for _, in := range cases {
		if err := ReadRows(s, strings.NewReader(in), dataset.NewTable(s).Append); err == nil {
			t.Errorf("ReadRows(%q) into a table should fail", in)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s, err := ParseSchema("A:ordinal:8,B:nominal:flat:4")
	if err != nil {
		t.Fatal(err)
	}
	tbl := dataset.NewTable(s)
	for i := 0; i < 20; i++ {
		if err := tbl.Append(i%8, i%4); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := WriteTableCSV(&buf, tbl); err != nil {
		t.Fatal(err)
	}
	back := dataset.NewTable(s)
	if err := ReadRows(s, &buf, back.Append); err != nil {
		t.Fatal(err)
	}
	if back.Len() != tbl.Len() {
		t.Fatalf("round trip lost rows: %d vs %d", back.Len(), tbl.Len())
	}
	a, b := make([]int, 2), make([]int, 2)
	for i := 0; i < tbl.Len(); i++ {
		tbl.Row(i, a)
		back.Row(i, b)
		if a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("row %d differs: %v vs %v", i, a, b)
		}
	}
}

func TestSplitNonEmpty(t *testing.T) {
	if got := SplitNonEmpty("a, b ,,c"); len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("SplitNonEmpty = %v", got)
	}
	if got := SplitNonEmpty(""); got != nil {
		t.Fatalf("SplitNonEmpty(\"\") = %v, want nil", got)
	}
	if got := SplitNonEmpty(" , "); got != nil {
		t.Fatalf("SplitNonEmpty of blanks = %v, want nil", got)
	}
}
