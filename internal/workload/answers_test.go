package workload

// The answer wire format's contract: answers round-trip bit-identically
// (float64 ==), a complete stream always carries a trailer, and a cut
// stream — however it was cut — is reported as an error rather than
// read as a short answer list.

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// awkward answer values: negatives, subnormals, extremes, and values
// whose shortest rendering exercises both fixed and scientific forms.
var testAnswers = []float64{
	0, 1, -1, 0.1, 146.625, -3.75e-12, 1e300, -1e-300,
	math.MaxFloat64, math.SmallestNonzeroFloat64, 5e-324, 123456789.000001,
}

func writeChunked(t *testing.T, aw *AnswerLines, answers []float64, chunk int) {
	t.Helper()
	for lo := 0; lo < len(answers); lo += chunk {
		hi := lo + chunk
		if hi > len(answers) {
			hi = len(answers)
		}
		if err := aw.WriteChunk(answers[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(Trailer{Answers: len(answers), Status: StatusOK}); err != nil {
		t.Fatal(err)
	}
}

// TestAnswerLinesAllocationFree: once its first chunk is out,
// AnswerLines formats and writes every further answer without
// allocating.
func TestAnswerLinesAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation accounting")
	}
	chunk := make([]float64, 4096)
	for i := range chunk {
		chunk[i] = testAnswers[i%len(testAnswers)] * float64(i+1)
	}
	chunk[0], chunk[1], chunk[2] = math.NaN(), math.Inf(-1), math.Copysign(0, -1)
	aw := NewAnswerLines(io.Discard)
	if err := aw.WriteChunk(chunk); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := aw.WriteChunk(chunk); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteChunk of %d answers allocated %v times, want 0", len(chunk), allocs)
	}
}

func TestAnswerLinesRoundTrip(t *testing.T) {
	for _, chunk := range []int{1, 5, 100} {
		var buf bytes.Buffer
		writeChunked(t, NewAnswerLines(&buf), testAnswers, chunk)
		got, trailer, err := ReadAnswerLines(&buf)
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		if trailer.Status != StatusOK || trailer.Answers != len(testAnswers) {
			t.Fatalf("chunk=%d: trailer = %+v", chunk, trailer)
		}
		if len(got) != len(testAnswers) {
			t.Fatalf("chunk=%d: %d answers, want %d", chunk, len(got), len(testAnswers))
		}
		for i, v := range testAnswers {
			if got[i] != v {
				t.Fatalf("chunk=%d: answer %d = %v, want %v (not bit-identical)", chunk, i, got[i], v)
			}
		}
	}
}

func TestAnswerLinesTruncated(t *testing.T) {
	var buf bytes.Buffer
	aw := NewAnswerLines(&buf)
	if err := aw.WriteChunk([]float64{1.5, 2.5}); err != nil {
		t.Fatal(err)
	}
	// No Close: the stream just stops, as a killed connection leaves it.
	got, _, err := ReadAnswerLines(&buf)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	// The answers that made it through are still returned, so a caller
	// can resume or diagnose.
	if len(got) != 2 || got[0] != 1.5 || got[1] != 2.5 {
		t.Fatalf("partial answers = %v", got)
	}

	// Cut a complete stream at every length short of its final newline:
	// no prefix may read as a complete stream, not even one cut inside
	// the trailer's status.
	buf.Reset()
	writeChunked(t, NewAnswerLines(&buf), []float64{1.5, 2.5}, 1)
	full := buf.Bytes()
	for cut := 0; cut < len(full)-1; cut++ {
		if _, tr, err := ReadAnswerLines(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("cut at %d bytes (%q) read as complete, trailer %+v", cut, full[:cut], tr)
		}
	}
}

func TestAnswerLinesErrorTrailer(t *testing.T) {
	var buf bytes.Buffer
	aw := NewAnswerLines(&buf)
	if err := aw.WriteChunk([]float64{7}); err != nil {
		t.Fatal(err)
	}
	// The error detail survives quoting: spaces, '=', quotes.
	detail := `workload: line 4098: query: predicate "Age=9..1" inverted`
	if err := aw.Close(Trailer{Answers: 1, Status: StatusError, Error: detail}); err != nil {
		t.Fatal(err)
	}
	got, trailer, err := ReadAnswerLines(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || trailer.Status != StatusError || trailer.Answers != 1 || trailer.Error != detail {
		t.Fatalf("got %v, trailer %+v", got, trailer)
	}
}

func TestAnswerLinesEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	writeChunked(t, NewAnswerLines(&buf), nil, 1)
	got, trailer, err := ReadAnswerLines(&buf)
	if err != nil || len(got) != 0 || trailer.Answers != 0 || trailer.Status != StatusOK {
		t.Fatalf("empty stream: answers=%v trailer=%+v err=%v", got, trailer, err)
	}
}

func TestTrailerLineParse(t *testing.T) {
	cases := []struct {
		line    string
		want    Trailer
		wantErr bool
	}{
		{"# answers=40000 status=ok", Trailer{Answers: 40000, Status: StatusOK}, false},
		{`# answers=3 status=error error="bad spec"`, Trailer{Answers: 3, Status: StatusError, Error: "bad spec"}, false},
		{"# answers=x status=ok", Trailer{}, true},
		{"# answers=1", Trailer{}, true},
		{"# answers=1 status=o", Trailer{}, true},
		{"# something else", Trailer{}, true},
	}
	for _, tc := range cases {
		got, err := parseTrailerLine(tc.line)
		if (err != nil) != tc.wantErr {
			t.Errorf("parseTrailerLine(%q) err = %v, wantErr=%v", tc.line, err, tc.wantErr)
			continue
		}
		if !tc.wantErr && got != tc.want {
			t.Errorf("parseTrailerLine(%q) = %+v, want %+v", tc.line, got, tc.want)
		}
	}
}
