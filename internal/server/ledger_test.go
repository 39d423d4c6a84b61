package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/ledger"
	"repro/internal/store"
)

// startBudgetServer starts a server whose tenant endpoint enforces a
// per-tenant budget through an in-memory ledger.
func startBudgetServer(t *testing.T, budget float64) *httptest.Server {
	t.Helper()
	led, err := ledger.New(ledger.Config{DefaultBudget: budget})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(Config{Ledger: led}).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// tenantPublish POSTs to the ledger-gated endpoint and returns the raw
// response; callers assert the status they expect.
func tenantPublish(t *testing.T, ts *httptest.Server, tenant, params, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/tenants/"+tenant+"/publish?"+params, "text/csv", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeTenantSummary(t *testing.T, resp *http.Response) tenantSummary {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("tenant publish status %d: %s", resp.StatusCode, raw)
	}
	var sum tenantSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatal(err)
	}
	return sum
}

func fetchBudget(t *testing.T, ts *httptest.Server, tenant string) budgetView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/tenants/" + tenant + "/budget")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("budget status %d: %s", resp.StatusCode, raw)
	}
	var bv budgetView
	if err := json.NewDecoder(resp.Body).Decode(&bv); err != nil {
		t.Fatal(err)
	}
	return bv
}

// refusal is the typed 429 body of an exhausted budget.
type refusal struct {
	Error     string  `json:"error"`
	Code      string  `json:"code"`
	Tenant    string  `json:"tenant"`
	Budget    float64 `json:"budget"`
	Spent     float64 `json:"spent"`
	Remaining float64 `json:"remaining"`
}

func decodeRefusal(t *testing.T, resp *http.Response) refusal {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, raw)
	}
	var r refusal
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		t.Fatal(err)
	}
	return r
}

// TestLedgerTenantPublish covers the happy path: epochs get versioned
// "<tenant>/<epoch>" IDs, the summary carries the remaining budget, and
// the stored release is queryable through the existing release
// endpoints with the slash URL-encoded (%2F stays inside one path
// segment under Go's segment-wise ServeMux unescaping).
func TestLedgerTenantPublish(t *testing.T) {
	ts := startBudgetServer(t, 1)
	sum := decodeTenantSummary(t, tenantPublish(t, ts, "alice", "schema="+testSchema+"&epsilon=0.4&seed=1", testCSV))
	if sum.ID != "alice/1" || sum.Tenant != "alice" || sum.Epoch != 1 {
		t.Fatalf("first epoch summary = %+v", sum)
	}
	if sum.Remaining == nil || *sum.Remaining != 0.6 {
		t.Fatalf("budget_remaining = %v, want 0.6", sum.Remaining)
	}
	sum = decodeTenantSummary(t, tenantPublish(t, ts, "alice", "schema="+testSchema+"&epsilon=0.4&seed=2", testCSV))
	if sum.ID != "alice/2" {
		t.Fatalf("second epoch ID = %q, want alice/2", sum.ID)
	}

	// The versioned release answers queries like any other; the slash in
	// the ID rides in the URL as %2F.
	resp, err := http.Get(ts.URL + "/releases/alice%2F1/count?q=" + testCountQ)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("escaped-slash count status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Count float64 `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}

	bv := fetchBudget(t, ts, "alice")
	if !bv.Finite || bv.Spent != 0.8 || bv.Remaining == nil || *bv.Remaining != 0.2 || bv.Epoch != 2 {
		t.Fatalf("budget view = %+v", bv)
	}
	if want := []string{"alice/1", "alice/2"}; len(bv.Epochs) != 2 || bv.Epochs[0] != want[0] || bv.Epochs[1] != want[1] {
		t.Fatalf("epochs = %v, want %v", bv.Epochs, want)
	}
}

const testCountQ = "Age=0..7"

// TestLedgerExhaustion429 is the HTTP refusal contract: the first
// over-budget publish — and every retry — gets a typed 429 whose body
// names the code and the exact balance, never a 500, and the refusal
// does not consume budget or epochs.
func TestLedgerExhaustion429(t *testing.T) {
	ts := startBudgetServer(t, 0.5)
	for seed := 1; seed <= 2; seed++ {
		decodeTenantSummary(t, tenantPublish(t, ts, "bob", fmt.Sprintf("schema=%s&epsilon=0.2&seed=%d", testSchema, seed), testCSV))
	}
	for try := 0; try < 3; try++ { // refusals never flicker into acceptance
		r := decodeRefusal(t, tenantPublish(t, ts, "bob", "schema="+testSchema+"&epsilon=0.2", testCSV))
		if r.Code != "budget_exhausted" || r.Tenant != "bob" {
			t.Fatalf("try %d: refusal = %+v", try, r)
		}
		if r.Budget != 0.5 || r.Spent != 0.4 || r.Remaining != 0.1 {
			t.Fatalf("try %d: balance = %+v, want 0.5/0.4/0.1", try, r)
		}
	}
	// A smaller publish that still fits is accepted after the refusals.
	sum := decodeTenantSummary(t, tenantPublish(t, ts, "bob", "schema="+testSchema+"&epsilon=0.1&seed=9", testCSV))
	if sum.ID != "bob/3" || sum.Remaining == nil || *sum.Remaining != 0 {
		t.Fatalf("fitting publish after refusals = %+v", sum)
	}
}

// TestLedgerTenantErrorPaths: malformed tenants and parameters are 400s
// that never touch the ledger, and a failed ingest refunds its charge.
func TestLedgerTenantErrorPaths(t *testing.T) {
	ts := startBudgetServer(t, 1)
	cases := []struct {
		tenant, params, body string
	}{
		{".hidden", "schema=" + testSchema, testCSV},           // bad tenant name
		{"carol", "", testCSV},                                 // missing schema
		{"carol", "schema=" + testSchema + "&epsilon=x", ""},   // bad epsilon
		{"carol", "schema=" + testSchema + "&sa=NoSuch", ""},   // bad SA
		{"carol", "schema=" + testSchema + "&mechanism=?", ""}, // bad mechanism
	}
	for _, tc := range cases {
		resp := tenantPublish(t, ts, tc.tenant, tc.params, tc.body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("tenant %q params %q: status %d, want 400", tc.tenant, tc.params, resp.StatusCode)
		}
	}
	if bv := fetchBudget(t, ts, "carol"); bv.Spent != 0 || bv.Epoch != 0 {
		t.Fatalf("malformed requests touched the budget: %+v", bv)
	}

	// A charge taken and then lost to a bad body comes straight back.
	resp := tenantPublish(t, ts, "carol", "schema="+testSchema+"&epsilon=0.4", "not,a\nvalid csv")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad CSV status %d, want 400", resp.StatusCode)
	}
	if bv := fetchBudget(t, ts, "carol"); bv.Spent != 0 {
		t.Fatalf("failed ingest leaked budget: %+v", bv)
	}
}

// TestLedgerUnlimitedBudgetView: with no budget configured the view
// marks the tenant infinite and omits the unrepresentable fields rather
// than failing to marshal +Inf.
func TestLedgerUnlimitedBudgetView(t *testing.T) {
	ts := startServer(t) // Config zero value: unlimited budget
	decodeTenantSummary(t, tenantPublish(t, ts, "dave", "schema="+testSchema+"&epsilon=0.4&seed=1", testCSV))
	bv := fetchBudget(t, ts, "dave")
	if bv.Finite || bv.Budget != nil || bv.Remaining != nil {
		t.Fatalf("unlimited view = %+v", bv)
	}
	if bv.Spent != 0.4 || bv.Epoch != 1 {
		t.Fatalf("unlimited spend tracking = %+v", bv)
	}
	// A tenant that never published is a fresh account, not a 404.
	if bv := fetchBudget(t, ts, "nobody"); bv.Spent != 0 || len(bv.Epochs) != 0 {
		t.Fatalf("fresh tenant view = %+v", bv)
	}
}

// TestLedgerHTTPRestartRecovery is the restart test over all three
// moving parts at once: store spill dir, ledger dir, and the HTTP
// surface. After N epochs the daemon is rebuilt on the same
// directories; the recovered balance and epoch list are bit-identical
// and the over-budget publish is still refused.
func TestLedgerHTTPRestartRecovery(t *testing.T) {
	storeDir, ledgerDir := t.TempDir(), t.TempDir()
	open := func() *httptest.Server {
		st, err := store.New(store.Config{Dir: storeDir})
		if err != nil {
			t.Fatal(err)
		}
		led, err := ledger.New(ledger.Config{Dir: ledgerDir, DefaultBudget: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewServer(New(Config{Store: st, Ledger: led}).Handler())
	}
	ts := open()
	for seed := 1; seed <= 2; seed++ {
		decodeTenantSummary(t, tenantPublish(t, ts, "erin", fmt.Sprintf("schema=%s&epsilon=0.2&seed=%d", testSchema, seed), testCSV))
	}
	decodeRefusal(t, tenantPublish(t, ts, "erin", "schema="+testSchema+"&epsilon=0.2", testCSV))
	before := fetchBudget(t, ts, "erin")
	ts.Close()

	ts = open()
	defer ts.Close()
	after := fetchBudget(t, ts, "erin")
	if after.Spent != before.Spent || *after.Remaining != *before.Remaining || after.Epoch != before.Epoch {
		t.Fatalf("recovered balance %+v, want %+v", after, before)
	}
	if len(after.Epochs) != 2 || after.Epochs[0] != "erin/1" || after.Epochs[1] != "erin/2" {
		t.Fatalf("recovered epochs = %v", after.Epochs)
	}
	// The refusal survives the restart: sequential composition is not
	// resettable by bouncing the daemon.
	r := decodeRefusal(t, tenantPublish(t, ts, "erin", "schema="+testSchema+"&epsilon=0.2", testCSV))
	if r.Remaining != 0.1 {
		t.Fatalf("post-restart refusal = %+v", r)
	}
	// The recovered epochs still answer queries.
	resp, err := http.Get(ts.URL + "/releases/erin%2F1/count?q=" + testCountQ)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered release count status %d", resp.StatusCode)
	}
}

// TestLedgerConcurrentTenantPublishes hammers one tenant from many
// goroutines: exactly budget/ε publishes may succeed, every other
// response is the typed 429, the minted epoch IDs are unique, and the
// final spend equals successes×ε to the bit.
func TestLedgerConcurrentTenantPublishes(t *testing.T) {
	ts := startBudgetServer(t, 1)
	const n = 8
	var (
		mu       sync.Mutex
		ids      = map[string]bool{}
		statuses = map[int]int{}
	)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			resp, err := http.Post(
				fmt.Sprintf("%s/tenants/frank/publish?schema=%s&epsilon=0.25&seed=%d", ts.URL, testSchema, seed),
				"text/csv", strings.NewReader(testCSV))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var sum tenantSummary
			if resp.StatusCode == http.StatusCreated {
				if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
					t.Error(err)
					return
				}
			} else {
				io.Copy(io.Discard, resp.Body)
			}
			mu.Lock()
			defer mu.Unlock()
			statuses[resp.StatusCode]++
			if sum.ID != "" {
				if ids[sum.ID] {
					t.Errorf("duplicate epoch ID %q", sum.ID)
				}
				ids[sum.ID] = true
			}
		}(i)
	}
	wg.Wait()
	if statuses[http.StatusCreated] != 4 || statuses[http.StatusTooManyRequests] != n-4 {
		t.Fatalf("statuses = %v, want 4×201 and %d×429", statuses, n-4)
	}
	bv := fetchBudget(t, ts, "frank")
	if bv.Spent != 1 || bv.Remaining == nil || *bv.Remaining != 0 {
		t.Fatalf("final balance = %+v, want spent exactly 1", bv)
	}
	if len(bv.Epochs) != 4 {
		t.Fatalf("stored %d epochs, want 4: %v", len(bv.Epochs), bv.Epochs)
	}
}

// TestLedgerStatsCounters: /stats nests the ledger counters under
// "ledger" while the store fields stay top-level, so pre-ledger clients
// decoding into store.Stats keep working (fetchStats does exactly that
// elsewhere in this suite).
func TestLedgerStatsCounters(t *testing.T) {
	ts := startBudgetServer(t, 0.5)
	decodeTenantSummary(t, tenantPublish(t, ts, "grace", "schema="+testSchema+"&epsilon=0.4&seed=1", testCSV))
	// One refund: a charge lost to a bad body.
	resp := tenantPublish(t, ts, "grace", "schema="+testSchema+"&epsilon=0.1", "bogus")
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// One refusal.
	decodeRefusal(t, tenantPublish(t, ts, "grace", "schema="+testSchema+"&epsilon=0.2", testCSV))

	httpResp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var st struct {
		store.Stats
		Ledger ledger.Stats `json:"ledger"`
	}
	if err := json.NewDecoder(httpResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Ledger.Charges != 2 || st.Ledger.Refunds != 1 || st.Ledger.Refusals != 1 || st.Ledger.Tenants != 1 {
		t.Fatalf("ledger stats = %+v, want 2 charges, 1 refund, 1 refusal, 1 tenant", st.Ledger)
	}
	if st.Releases != 1 || st.Resident != 1 {
		t.Fatalf("store stats lost in the nesting: %+v", st.Stats)
	}
}

// TestPublishRefusesNonFiniteEpsilon: an ε that parses as a float but
// is not positive and finite, or is so small that λ = 2ρ/ε is not
// finite, is a 400 on both publish endpoints. No release is stored and
// no budget is spent; an infinite ε used to store a release with λ = 0,
// the exact counts, and a subnormal one a release with λ = +Inf.
func TestPublishRefusesNonFiniteEpsilon(t *testing.T) {
	ts := startBudgetServer(t, 1)
	for _, tc := range []struct{ eps, rule string }{
		{"Inf", "positive and finite"},
		{"-Inf", "positive and finite"},
		{"NaN", "positive and finite"},
		{"Infinity", "positive and finite"},
		{"5e-324", "too small"},
		{"1e-310", "too small"},
	} {
		params := "schema=" + testSchema + "&epsilon=" + tc.eps
		for _, url := range []string{ts.URL + "/publish?" + params, ts.URL + "/tenants/carol/publish?" + params} {
			resp, err := http.Post(url, "text/csv", strings.NewReader(testCSV))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), tc.rule) {
				t.Fatalf("%s: status %d, body %s; want 400 naming the rule", url, resp.StatusCode, raw)
			}
		}
	}
	resp, err := http.Get(ts.URL + "/releases")
	if err != nil {
		t.Fatal(err)
	}
	var list []summary
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list) != 0 {
		t.Fatalf("releases after refused publishes: %v (err %v), want none", list, err)
	}
	if bv := fetchBudget(t, ts, "carol"); bv.Spent != 0 || bv.Epoch != 0 {
		t.Fatalf("refused publishes touched the budget: %+v", bv)
	}
}
