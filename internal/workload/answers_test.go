package workload

// The answer wire format's contract: answers round-trip bit-identically
// (float64 ==) through both representations, a complete stream always
// carries a trailer, and a cut stream — however it was cut — is
// reported as ErrTruncated rather than read as a short answer list.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// awkward answer values: negatives, subnormals, extremes, and values
// whose shortest rendering exercises both fixed and scientific forms.
var testAnswers = []float64{
	0, 1, -1, 0.1, 146.625, -3.75e-12, 1e300, -1e-300,
	math.MaxFloat64, math.SmallestNonzeroFloat64, 5e-324, 123456789.000001,
}

func writeChunked(t *testing.T, aw AnswerWriter, answers []float64, chunk int) {
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

func TestAnswerJSONRoundTrip(t *testing.T) {
	for _, chunk := range []int{1, 5, 100} {
		var buf bytes.Buffer
		writeChunked(t, NewAnswerJSON(&buf, 4), testAnswers, chunk)
		got, trailer, err := ReadAnswersJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("chunk=%d: %v\nbody: %s", chunk, err, buf.Bytes())
		}
		if trailer.Status != StatusOK || trailer.Answers != len(testAnswers) {
			t.Fatalf("chunk=%d: trailer = %+v", chunk, trailer)
		}
		for i, v := range testAnswers {
			if got[i] != v {
				t.Fatalf("chunk=%d: answer %d = %v, want %v (not bit-identical)", chunk, i, got[i], v)
			}
		}
		// The streamed object supersets the pre-streaming response shape:
		// a client decoding the old {queries, workers, answers} keeps
		// working, trailer unseen.
		var legacy struct {
			Queries int       `json:"queries"`
			Workers int       `json:"workers"`
			Answers []float64 `json:"answers"`
		}
		if err := json.Unmarshal(buf.Bytes(), &legacy); err != nil {
			t.Fatalf("chunk=%d: legacy decode: %v", chunk, err)
		}
		if legacy.Queries != len(testAnswers) || legacy.Workers != 4 || len(legacy.Answers) != len(testAnswers) {
			t.Fatalf("chunk=%d: legacy shape broken: %+v", chunk, legacy)
		}
	}
}

func TestAnswerJSONTruncated(t *testing.T) {
	var buf bytes.Buffer
	aw := NewAnswerJSON(&buf, 1)
	if err := aw.WriteChunk([]float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := aw.Close(Trailer{Answers: 3, Status: StatusOK}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Cut the body at every prefix length: none may read as complete.
	for cut := 0; cut < len(full)-1; cut++ {
		if _, _, err := ReadAnswersJSON(bytes.NewReader(full[:cut])); !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d bytes: err = %v, want ErrTruncated", cut, err)
		}
	}
	if _, _, err := ReadAnswersJSON(bytes.NewReader(full)); err != nil {
		t.Fatalf("full body: %v", err)
	}
}

func TestAnswerJSONNoTrailerField(t *testing.T) {
	// A complete JSON object without a trailer (the pre-streaming
	// response) is reported truncated too: the caller asked for the
	// streaming guarantee and did not get it.
	body := `{"queries":2,"workers":1,"answers":[1,2]}`
	if _, _, err := ReadAnswersJSON(strings.NewReader(body)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestAnswerJSONEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	aw := NewAnswerJSON(&buf, 2)
	if err := aw.Close(Trailer{Answers: 0, Status: StatusOK}); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	got, trailer, err := ReadAnswersJSON(bytes.NewReader(body))
	if err != nil || len(got) != 0 || trailer.Status != StatusOK {
		t.Fatalf("empty stream: answers=%v trailer=%+v err=%v", got, trailer, err)
	}
	if !json.Valid(body) {
		t.Fatalf("empty stream is invalid JSON: %s", body)
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
