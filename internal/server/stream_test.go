package server

// The streaming half of the batch endpoint: chunked answers with a
// trailer, mid-stream failure semantics, truncation detection, a failed
// workload's connection staying usable, and the per-release answer
// cache, which /count uses and workloads bypass, surfacing on /stats.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/workload"
)

// batchRequest POSTs a workload, with an Accept header unless accept is
// empty, and returns the raw response.
func batchRequest(t *testing.T, ts *httptest.Server, id, params, contentType, accept, body string) *http.Response {
	t.Helper()
	target := ts.URL + "/releases/" + id + "/query"
	if params != "" {
		target += "?" + params
	}
	req, err := http.NewRequest(http.MethodPost, target, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestBatchLineAnswers: the answers are lines whatever Accept asks
// for — text/plain, one answer per line, then an ok trailer — and they
// equal (float64 ==) /count's answers to the same specs.
func TestBatchLineAnswers(t *testing.T) {
	ts := startServer(t)
	sum := publish(t, ts, "schema="+testSchema+"&epsilon=2&seed=31", testCSV)
	specs := batchSpecs(t, 300)
	body := strings.Join(specs, "\n")
	want := make([]float64, len(specs))
	for i, spec := range specs {
		want[i] = countOne(t, ts, sum.ID, spec)
	}

	for _, accept := range []string{"", "application/json", "text/csv", "*/*"} {
		resp := batchRequest(t, ts, sum.ID, "parallelism=2", "text/plain", accept, body)
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("accept=%q: status %d: %s", accept, resp.StatusCode, raw)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("accept=%q: Content-Type %q, want text/plain", accept, ct)
		}
		got, trailer, err := workload.ReadAnswerLines(strings.NewReader(string(raw)))
		if err != nil {
			t.Fatalf("accept=%q: %v", accept, err)
		}
		if trailer.Status != workload.StatusOK || trailer.Answers != len(specs) {
			t.Fatalf("accept=%q: trailer = %+v", accept, trailer)
		}
		if len(got) != len(want) {
			t.Fatalf("accept=%q: %d answers, want %d", accept, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("accept=%q: answer %d = %v, /count gave %v", accept, i, got[i], want[i])
			}
		}
	}
}

// TestBatchMidStreamError is the silent-truncation fix, positive half:
// a workload failing after the first chunk has already flushed cannot
// change the 200 status — instead the stream ends early with a
// status=error trailer naming the failing line, and every answer from
// complete chunks stays delivered.
func TestBatchMidStreamError(t *testing.T) {
	ts := startServer(t)
	sum := publish(t, ts, "schema="+testSchema+"&epsilon=2&seed=33", testCSV)
	// 5000 valid lines with an invalid spec at line 4500 — inside the
	// second chunk, after the first (4096 answers) is on the wire.
	lines := make([]string, 5000)
	for i := range lines {
		lines[i] = "Age=0..1"
	}
	lines[4499] = "Age=9..1" // inverted range, line 4500
	resp := batchRequest(t, ts, sum.ID, "", "text/csv", "", strings.Join(lines, "\n"))
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (headers were already sent when the error hit): %s", resp.StatusCode, raw)
	}
	answers, trailer, err := workload.ReadAnswerLines(strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if trailer.Status != workload.StatusError {
		t.Fatalf("trailer = %+v, want status=error", trailer)
	}
	if trailer.Answers != 4096 || len(answers) != 4096 {
		t.Fatalf("delivered %d answers (trailer %d), want the complete first chunk of 4096", len(answers), trailer.Answers)
	}
	if !strings.Contains(trailer.Error, "line 4500") {
		t.Fatalf("trailer error %q does not name line 4500", trailer.Error)
	}
}

// TestBatchReadsBodyAfterFirstFlush: answers stream back while the
// workload is still arriving. The client holds back the tail of a
// 10,000-line body until it has read the first answer, which the
// server writes once it has parsed two chunks; the server must keep
// reading the body after that write, not drop what is still in flight.
func TestBatchReadsBodyAfterFirstFlush(t *testing.T) {
	ts := startServer(t)
	sum := publish(t, ts, "schema="+testSchema+"&epsilon=2&seed=36", testCSV)
	const n, head = 10000, 2*4096 + 1
	pr, pw := io.Pipe()
	firstAnswer := make(chan struct{})
	waited := make(chan bool, 1)
	go func() {
		io.WriteString(pw, strings.Repeat("Age=0..1\n", head))
		select {
		case <-firstAnswer:
			waited <- false
		case <-time.After(10 * time.Second):
			waited <- true
		}
		io.WriteString(pw, strings.Repeat("Age=0..1\n", n-head))
		pw.Close()
	}()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/releases/"+sum.ID+"/query", pr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	first, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	close(firstAnswer)
	if <-waited {
		t.Fatal("no answer within 10s while the body's tail was held back")
	}
	answers, trailer, err := workload.ReadAnswerLines(io.MultiReader(strings.NewReader(first), br))
	if err != nil {
		t.Fatal(err)
	}
	if trailer.Status != workload.StatusOK || trailer.Answers != n || len(answers) != n {
		t.Fatalf("trailer = %+v over %d answers, want ok over %d", trailer, len(answers), n)
	}
}

// failingWriter is a ResponseWriter whose connection dies after limit
// bytes — the server-side view of a client that disappeared mid-stream.
type failingWriter struct {
	h     http.Header
	wrote []byte
	limit int
}

func (f *failingWriter) Header() http.Header { return f.h }
func (f *failingWriter) WriteHeader(int)     {}
func (f *failingWriter) Write(p []byte) (int, error) {
	if len(f.wrote)+len(p) > f.limit {
		room := f.limit - len(f.wrote)
		if room > 0 {
			f.wrote = append(f.wrote, p[:room]...)
		}
		return room, errors.New("connection reset mid-stream")
	}
	f.wrote = append(f.wrote, p...)
	return len(p), nil
}

// TestBatchTruncationDetectable is the silent-truncation regression
// test, negative half: when the connection dies mid-stream, the bytes
// that made it out do NOT parse as a complete answer stream — the
// reader reports ErrTruncated instead of handing the client a silently
// short answer list.
func TestBatchTruncationDetectable(t *testing.T) {
	srv := New(Config{})
	h := srv.Handler()

	pub := httptest.NewRequest(http.MethodPost, "/publish?schema="+testSchema+"&epsilon=2&seed=34", strings.NewReader(testCSV))
	pubRec := httptest.NewRecorder()
	h.ServeHTTP(pubRec, pub)
	if pubRec.Code != http.StatusCreated {
		t.Fatalf("publish status %d: %s", pubRec.Code, pubRec.Body.Bytes())
	}
	var sum struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(pubRec.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}

	// A 3-chunk workload; the connection dies ~5 KB into the response —
	// partway through the wire bytes of the first chunk's answers.
	specs := make([]string, 10_000)
	for i := range specs {
		specs[i] = fmt.Sprintf("Age=0..%d", i%8)
	}
	req := httptest.NewRequest(http.MethodPost, "/releases/"+sum.ID+"/query", strings.NewReader(strings.Join(specs, "\n")))
	req.Header.Set("Content-Type", "text/csv")
	fw := &failingWriter{h: make(http.Header), limit: 5 << 10}
	h.ServeHTTP(fw, req)

	answers, _, err := workload.ReadAnswerLines(strings.NewReader(string(fw.wrote)))
	if !errors.Is(err, workload.ErrTruncated) {
		t.Fatalf("reading the cut stream: err = %v over %d answers, want ErrTruncated", err, len(answers))
	}
	if len(answers) >= len(specs) {
		t.Fatalf("cut stream still carried all %d answers; writer never failed", len(answers))
	}
}

// TestCountUsesAnswerCache: repeated /count calls for the same spec are
// served from the release's answer cache — visible as hits on /stats —
// and the cached answer is float64-identical to the cold one.
func TestCountUsesAnswerCache(t *testing.T) {
	ts := startServer(t)
	sum := publish(t, ts, "schema="+testSchema+"&epsilon=2&seed=35", testCSV)
	cold := countOne(t, ts, sum.ID, "Age=1..6")
	st0 := fetchStats(t, ts)
	if st0.AnswerCacheMax == 0 {
		t.Fatalf("implicit store has no answer cache: %+v", st0)
	}
	if st0.AnswerCacheMisses == 0 || st0.AnswerCacheEntries == 0 {
		t.Fatalf("cold count did not populate the cache: %+v", st0)
	}
	for i := 0; i < 3; i++ {
		if warm := countOne(t, ts, sum.ID, "Age=1..6"); warm != cold {
			t.Fatalf("cached count = %v, cold = %v (cache changed an answer)", warm, cold)
		}
	}
	st1 := fetchStats(t, ts)
	if got := st1.AnswerCacheHits - st0.AnswerCacheHits; got < 3 {
		t.Fatalf("warm counts produced %d cache hits, want ≥ 3 (%+v)", got, st1)
	}
}

// TestBatchBypassesAnswerCache: a streamed workload answers straight
// from the summed-area table — it neither probes nor fills the answer
// cache, cold or warm, so answer_cache_hits and answer_cache_misses do
// not move — and its answers equal /count's bit for bit, whether /count
// answered from the evaluator or from the cache.
func TestBatchBypassesAnswerCache(t *testing.T) {
	ts := startServer(t)
	sum := publish(t, ts, "schema="+testSchema+"&epsilon=2&seed=36", testCSV)
	specs := batchSpecs(t, 100)
	body := strings.Join(specs, "\n")
	unchanged := func(pass string, before, after store.Stats) {
		t.Helper()
		if after.AnswerCacheHits != before.AnswerCacheHits || after.AnswerCacheMisses != before.AnswerCacheMisses {
			t.Fatalf("%s workload moved the answer cache: hits %d → %d, misses %d → %d", pass,
				before.AnswerCacheHits, after.AnswerCacheHits, before.AnswerCacheMisses, after.AnswerCacheMisses)
		}
	}
	st0 := fetchStats(t, ts)
	cold := batchAnswers(t, ts, sum.ID, "", "text/csv", body)
	unchanged("cold", st0, fetchStats(t, ts))

	for pass := 0; pass < 2; pass++ { // a cold then a warm cache under /count
		for i, spec := range specs {
			if c := countOne(t, ts, sum.ID, spec); math.Float64bits(c) != math.Float64bits(cold[i]) {
				t.Fatalf("pass %d: /count %q = %v, workload answer %d = %v", pass, spec, c, i, cold[i])
			}
		}
	}
	st1 := fetchStats(t, ts)
	if st1.AnswerCacheHits-st0.AnswerCacheHits < int64(len(specs)) {
		t.Fatalf("second /count pass produced %d hits, want ≥ %d", st1.AnswerCacheHits-st0.AnswerCacheHits, len(specs))
	}
	warm := batchAnswers(t, ts, sum.ID, "parallelism=4", "text/csv", body)
	unchanged("warm", st1, fetchStats(t, ts))
	for i := range cold {
		if math.Float64bits(warm[i]) != math.Float64bits(cold[i]) {
			t.Fatalf("answer %d: %v with a warm cache, %v with a cold one", i, warm[i], cold[i])
		}
	}
}

// TestBatchEmptyWorkloadTrailer: an empty workload still gets a
// complete stream — zero answers, ok trailer — not an empty body.
func TestBatchEmptyWorkloadTrailer(t *testing.T) {
	ts := startServer(t)
	sum := publish(t, ts, "schema="+testSchema+"&epsilon=2&seed=37", testCSV)
	resp := batchRequest(t, ts, sum.ID, "", "text/csv", "", "\n\n")
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	answers, trailer, err := workload.ReadAnswerLines(strings.NewReader(string(raw)))
	if err != nil || len(answers) != 0 || trailer.Status != workload.StatusOK || trailer.Answers != 0 {
		t.Fatalf("empty workload: answers=%v trailer=%+v err=%v", answers, trailer, err)
	}
}

// lockedBuffer is a log destination shared by the server's connection
// goroutines and the test.
type lockedBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestBatchFailureKeepsConnection: a workload that fails with part of
// its body unread — a bad first line (400) or a bad line after the
// first chunk is out (200 with a status=error trailer) — leaves its
// keep-alive connection fit for the next request, and the server logs
// no panic. One client connection carries every request, so a
// connection the server broke fails the request after it.
func TestBatchFailureKeepsConnection(t *testing.T) {
	var serverLog lockedBuffer
	ts := httptest.NewUnstartedServer(New(Config{}).Handler())
	ts.Config.ErrorLog = log.New(&serverLog, "", 0)
	ts.Start()
	t.Cleanup(ts.Close)
	sum := publish(t, ts, "schema="+testSchema+"&epsilon=2&seed=38", testCSV)
	tr := &http.Transport{MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	client := &http.Client{Transport: tr}

	// About 90 KB each: larger than the line reader's first 64 KiB read.
	lines := make([]string, 10000)
	for i := range lines {
		lines[i] = "Age=0..1"
	}
	good := strings.Join(lines, "\n")
	lines[0] = "Age=9..1"
	badFirst := strings.Join(lines, "\n")
	lines[0], lines[4499] = "Age=0..1", "Age=9..1"
	badMid := strings.Join(lines, "\n")

	for _, tc := range []struct {
		name, contentType, body string
		status                  int
		trailer                 string // the status=... a 200 must end with
	}{
		{"bad line 1", "text/plain", badFirst, http.StatusBadRequest, ""},
		{"bad line 1 again", "text/plain", badFirst, http.StatusBadRequest, ""},
		{"bad line 4500", "text/plain", badMid, http.StatusOK, workload.StatusError},
		{"bad line 4500 again", "text/plain", badMid, http.StatusOK, workload.StatusError},
		{"JSON body", "application/json", `{"queries": ["Age=0..1"]}`, http.StatusUnsupportedMediaType, ""},
		{"good", "text/plain", good, http.StatusOK, workload.StatusOK},
	} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/releases/"+sum.ID+"/query", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", tc.contentType)
		resp, err := client.Do(req)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Errorf("%s: reading the response: %v", tc.name, err)
			continue
		}
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d: %.200s", tc.name, resp.StatusCode, tc.status, raw)
			continue
		}
		if tc.trailer == "" {
			continue
		}
		if _, trailer, err := workload.ReadAnswerLines(strings.NewReader(string(raw))); err != nil || trailer.Status != tc.trailer {
			t.Errorf("%s: trailer %+v, err %v; want status=%s", tc.name, trailer, err, tc.trailer)
		}
	}
	ts.Close()
	if l := serverLog.String(); strings.Contains(l, "panic") {
		t.Errorf("server log:\n%s", l)
	}
}
