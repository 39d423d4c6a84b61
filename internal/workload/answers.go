// Streaming answer wire format. A batch response at million-query
// scale is written chunk by chunk while later chunks still execute, so
// a client can no longer equate "the connection closed" with "the
// workload finished": a mid-stream failure (or a killed connection)
// would silently truncate the answer list. Every streamed answer body
// therefore ends with an explicit trailer carrying the answer count and
// a status — a response without a well-formed trailer IS truncated, by
// definition, and ReadAnswerLines says so.
//
// The format mirrors the workload format: one answer per line
// (strconv 'g'/-1, which round-trips the exact float64), terminated by
// a '#'-prefixed trailer line ("# answers=40000 status=ok") that
// line-oriented consumers can skip as a comment — written by
// AnswerLines, read by ReadAnswerLines.

package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Trailer terminates a streamed answer body. Status is StatusOK when
// every workload query was answered; StatusError means the stream was
// cut deliberately after Answers answers (Error says why: a bad spec
// mid-workload, a cancelled request, an engine failure). A body that
// simply ends without any trailer was truncated by the transport.
type Trailer struct {
	// Answers is the number of answers actually delivered before the
	// trailer.
	Answers int
	// Status is StatusOK or StatusError.
	Status string
	// Error carries the failure detail when Status is StatusError.
	Error string
}

// Trailer status values.
const (
	StatusOK    = "ok"
	StatusError = "error"
)

// ErrTruncated reports an answer stream that ended without a trailer —
// the transport dropped data after the last byte received. Compare with
// errors.Is.
var ErrTruncated = errors.New("workload: answer stream truncated (no trailer)")

// trailerPrefix starts the line format's trailer line; '#' cannot start
// an answer (answers are numbers), so the trailer is unambiguous.
const trailerPrefix = "# answers="

// maxAnswerLine is the longest line AnswerLines writes for one answer:
// the longest 'g'/-1 float64 rendering ("-2.2250738585072014e-308",
// 24 bytes) and its newline.
const maxAnswerLine = 25

// AnswerLines writes the answer format chunk by chunk, as
// ExecuteStream's sink drives it: zero or more WriteChunk calls in
// answer order, then exactly one Close carrying the trailer.
type AnswerLines struct {
	w io.Writer
	// buf is the one buffer each chunk and the trailer are formatted
	// into before their one Write.
	buf []byte
}

// NewAnswerLines returns an AnswerLines writing to w.
func NewAnswerLines(w io.Writer) *AnswerLines {
	return &AnswerLines{w: w}
}

// WriteChunk formats the chunk, one answer per line, into one buffer
// and writes it in one Write: the chunk is on the wire before the next
// one executes, in one large write rather than one per few KiB. The
// buffer is grown to the chunk's longest possible rendering and kept,
// so a chunk no longer than an earlier one allocates nothing.
func (a *AnswerLines) WriteChunk(answers []float64) error {
	b := slices.Grow(a.buf[:0], maxAnswerLine*len(answers))
	for _, v := range answers {
		b = append(strconv.AppendFloat(b, v, 'g', -1, 64), '\n')
	}
	a.buf = b
	_, err := a.w.Write(b)
	return err
}

// Close writes the trailer line.
func (a *AnswerLines) Close(t Trailer) error {
	b := append(a.buf[:0], trailerPrefix...)
	b = strconv.AppendInt(b, int64(t.Answers), 10)
	b = append(b, " status="...)
	b = append(b, t.Status...)
	if t.Error != "" {
		b = append(b, " error="...)
		b = strconv.AppendQuote(b, t.Error)
	}
	b = append(b, '\n')
	a.buf = b
	_, err := a.w.Write(b)
	return err
}

// ReadAnswerLines reads a line-format answer stream: the answers, the
// trailer, and a non-nil error wrapping ErrTruncated if the stream
// ended without one.
func ReadAnswerLines(r io.Reader) ([]float64, Trailer, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var answers []float64
	for sc.Scan() {
		line := sc.Text()
		if isBlank(line) {
			continue
		}
		if strings.HasPrefix(line, "#") {
			t, err := parseTrailerLine(line)
			if err != nil {
				return answers, Trailer{}, err
			}
			return answers, t, nil
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
		if err != nil {
			return answers, Trailer{}, fmt.Errorf("workload: bad answer line %q: %v", line, err)
		}
		answers = append(answers, v)
	}
	if err := sc.Err(); err != nil {
		return answers, Trailer{}, fmt.Errorf("workload: reading answers: %w", err)
	}
	return answers, Trailer{}, fmt.Errorf("%d answers then EOF: %w", len(answers), ErrTruncated)
}

// parseTrailerLine decodes "# answers=N status=S [error="..."]".
func parseTrailerLine(line string) (Trailer, error) {
	rest, ok := strings.CutPrefix(line, trailerPrefix)
	if !ok {
		return Trailer{}, fmt.Errorf("workload: bad trailer line %q", line)
	}
	numStr, rest, ok := strings.Cut(rest, " status=")
	if !ok {
		return Trailer{}, fmt.Errorf("workload: trailer %q missing status", line)
	}
	n, err := strconv.Atoi(numStr)
	if err != nil {
		return Trailer{}, fmt.Errorf("workload: trailer %q: bad answer count: %v", line, err)
	}
	t := Trailer{Answers: n}
	if status, errq, hasErr := strings.Cut(rest, " error="); hasErr {
		t.Status = status
		if t.Error, err = strconv.Unquote(errq); err != nil {
			return Trailer{}, fmt.Errorf("workload: trailer %q: bad error field: %v", line, err)
		}
	} else {
		t.Status = rest
	}
	if t.Status != StatusOK && t.Status != StatusError {
		// A trailer cut inside its status ("status=o") must not read
		// as a complete stream.
		return Trailer{}, fmt.Errorf("workload: trailer %q: unknown status %q", line, t.Status)
	}
	return t, nil
}
