// Command privelet publishes a differentially-private frequency matrix
// from a CSV table.
//
// The input CSV has one integer column per attribute (values are domain
// indices, 0-based) and no header. The schema is described on the command
// line, one clause per column:
//
//	Age:ordinal:101              ordinal attribute, domain size 101
//	Gender:nominal:flat:2        nominal, flat hierarchy with 2 leaves
//	Occ:nominal:3level:16x32     nominal, 3-level hierarchy 16 groups × 32
//
// Example:
//
//	privelet -schema "Age:ordinal:101,Gender:nominal:flat:2" \
//	         -epsilon 1.0 -sa Gender -in data.csv -out noisy.csv
//
// Without -seed every run draws a fresh seed from crypto/rand, so no
// one can regenerate its noise; -seed makes the release replayable, bit
// for bit.
//
// The publishing mechanism is selected by name from the privelet
// registry (-mechanism privelet+|privelet|basic|hay; hay requires a
// one-attribute schema). Rows are streamed from the CSV straight into
// the frequency matrix, so the input may hold far more rows than fit in
// memory.
//
// The output CSV has one row per frequency-matrix entry with the entry's
// coordinates followed by its noisy count. -save additionally writes the
// release in the binary codec format that priveletd's /export endpoint,
// its spill files, and privelet.Load all share.
//
// Saved releases are also queryable offline: -load reads a codec
// artifact (no raw data, no schema flag needed) and either dumps its
// matrix as CSV or — with -query — answers a whole workload file, one
// query spec per line in the shared wire format (the server's q=
// grammar: Age=30..49, Occ=@g3, Occ=#3..5), one answer per line out:
//
//	privelet -load release.prvl -query workload.csv -out answers.csv
//
// The workload streams: specs are parsed and answered in fixed-size
// chunks that execute while earlier answers are written, so memory
// stays O(chunk) however large the workload file is. The answer output
// ends with a '#'-prefixed trailer line ("# answers=N status=ok")
// carrying the answer count, so a consumer can tell a complete run from
// a truncated one; line-oriented tools can skip it as a comment. The
// workload fans across -parallelism workers; answers are bit-identical
// at any worker count and to the daemon's batch endpoint.
//
// Publishes can be held to a privacy budget: -budget ε refuses the
// publish outright — before the CSV is read or any noise drawn — once
// the -tenant account (default "default") would exceed ε under
// sequential composition. With -ledger-dir the balance is durable, so
// the budget spans invocations:
//
//	privelet -schema ... -epsilon 0.4 -budget 1 -ledger-dir ~/.privelet \
//	         -in monday.csv -out monday-noisy.csv
//	# two more runs later the budget is spent, and the fourth run exits
//	# with "privacy budget exhausted" without touching the input
//
// A publish that fails midway refunds its charge; only released noise
// costs budget. -out and -save are opened before the charge, so a run
// that cannot write its result spends nothing, and a failed run removes
// the output files it created.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"strings"

	privelet "repro"
	"repro/internal/cli"
	"repro/internal/rng"
	"repro/internal/workload"
)

func main() {
	var (
		schemaSpec = flag.String("schema", "", "comma-separated attribute clauses (see package doc)")
		epsilon    = flag.Float64("epsilon", 1.0, "privacy budget ε")
		saFlag     = flag.String("sa", "", "comma-separated SA attribute names (privelet+ only); 'auto' applies Corollary 1")
		seed       = flag.Uint64("seed", 0, "noise seed: the same data, parameters and seed give the same release (default: a fresh random seed, so the release cannot be replayed)")
		inPath     = flag.String("in", "", "input CSV (default stdin)")
		outPath    = flag.String("out", "", "output CSV (default stdout)")
		savePath   = flag.String("save", "", "also save the release in codec format (loadable with privelet.Load)")
		sanitize   = flag.Bool("sanitize", false, "round the release to non-negative integers")
		mechName   = flag.String("mechanism", "privelet+",
			fmt.Sprintf("publishing mechanism, one of %s", strings.Join(privelet.Mechanisms(), "|")))
		workers   = flag.Int("parallelism", 0, "worker goroutines (0 = all cores); never changes a release or an answer")
		loadPath  = flag.String("load", "", "read a saved release (codec format) instead of publishing; schema comes from the artifact")
		quePath   = flag.String("query", "", "workload file (one query spec per line) to answer against the -load release")
		budget    = flag.Float64("budget", 0, "total ε budget for -tenant; an over-budget publish is refused before any noise is drawn (0 = unlimited)")
		tenant    = flag.String("tenant", "default", "budget account the publish debits (with -budget or -ledger-dir)")
		ledgerDir = flag.String("ledger-dir", "", "directory for durable budget balances; the budget then spans invocations")
	)
	flag.Parse()

	if *loadPath != "" {
		// A loaded release is finished: every publish-time flag would be
		// silently dead, so reject them loudly rather than let a user
		// believe -sanitize or a different -epsilon applied.
		var conflicts []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "schema", "in", "epsilon", "sa", "seed", "sanitize", "mechanism", "save",
				"budget", "tenant", "ledger-dir":
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			fatal(fmt.Errorf("-load reads a finished release; publish flag(s) %s do not apply", strings.Join(conflicts, ", ")))
		}
		runOffline(*loadPath, *quePath, *outPath, *workers)
		return
	}
	if *quePath != "" {
		fatal(fmt.Errorf("-query needs -load (it answers a workload against a saved release)"))
	}
	if *schemaSpec == "" {
		fatal(fmt.Errorf("-schema is required"))
	}
	schema, err := cli.ParseSchema(*schemaSpec)
	if err != nil {
		fatal(err)
	}
	// Resolve the mechanism before ingest: with streaming input the CSV
	// pass is the dominant cost, and a typo'd name must not waste it.
	mech, err := privelet.MechanismByName(*mechName)
	if err != nil {
		fatal(err)
	}

	in := io.Reader(os.Stdin)
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}

	sa := cli.SplitNonEmpty(*saFlag)
	if len(sa) == 1 && sa[0] == "auto" {
		sa, err = privelet.RecommendSA(schema)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "privelet: auto SA = %v\n", sa)
	}

	// Without -seed the noise comes from a fresh random seed: a fixed
	// default would let anyone who knows the schema regenerate the
	// release's noise and subtract it.
	seedSet := false
	flag.Visit(func(f *flag.Flag) { seedSet = seedSet || f.Name == "seed" })
	if !seedSet {
		*seed = rng.FreshSeed()
	}

	// Reject parameter/mechanism mismatches (SA on a transform-free
	// mechanism, hay on a multi-attribute schema, bad ε) before ingest
	// too — same rationale as the name check above.
	params := privelet.Params{
		Epsilon: *epsilon, SA: sa, Seed: *seed, Sanitize: *sanitize, Parallelism: *workers,
	}
	if err := privelet.ValidateParams(mech, schema, params); err != nil {
		fatal(err)
	}

	// Stream rows into the frequency matrix: the table itself is never
	// buffered, so memory stays O(domain) however large the CSV is.
	pub, err := privelet.NewPublisher(schema)
	if err != nil {
		fatal(err)
	}
	// Open the outputs before the ledger charges: a run that cannot
	// write its result must fail before it spends ε.
	saveFile, outFile := openOutput(*savePath), openOutput(*outPath)
	var rel *privelet.Release
	publish := func() (err error) {
		if err = cli.ReadRows(schema, in, pub.Add); err == nil {
			rel, err = pub.Publish(context.Background(), *mechName, params)
		}
		return err
	}
	// With a budget the ledger charges before ingest: an over-budget
	// publish is refused with zero work done — no CSV pass, no noise
	// drawn — and a failed publish is refunded, so only released noise
	// costs budget.
	var (
		led   *privelet.Ledger
		epoch uint64
	)
	if *budget > 0 || *ledgerDir != "" {
		if led, err = privelet.NewLedger(*ledgerDir, *budget); err != nil {
			fatal(err)
		}
		epoch, err = led.Spend(*tenant, *epsilon, publish, nil)
	} else {
		err = publish()
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "privelet: %s (n=%d)\n", rel, pub.Rows())
	if led != nil {
		if rem := led.Remaining(*tenant); math.IsInf(rem, 1) {
			fmt.Fprintf(os.Stderr, "privelet: tenant %s epoch %d (unlimited budget)\n", *tenant, epoch)
		} else {
			fmt.Fprintf(os.Stderr, "privelet: tenant %s epoch %d, ε remaining %g\n", *tenant, epoch, rem)
		}
	}

	if *savePath != "" {
		f := createOutput(saveFile, *savePath)
		if err := rel.Save(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	out := io.Writer(os.Stdout)
	if *outPath != "" {
		f := createOutput(outFile, *outPath)
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		out = f
	}
	if err := writeMatrixCSV(out, rel.Matrix()); err != nil {
		fatal(err)
	}
}

// created lists the output files this run created; fatal removes them,
// so a failed run leaves none behind.
var created []string

// openOutput checks that path ("" means none) can be written. A new file
// is created and returned, and removed again if the run fails. An
// existing file, or a device such as /dev/stdout, is only opened to
// check: it keeps its bytes until createOutput, and openOutput returns
// nil for it.
func openOutput(path string) *os.File {
	if path == "" {
		return nil
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err == nil {
		created = append(created, path)
		return f
	}
	if errors.Is(err, fs.ErrExist) {
		if f, err = os.OpenFile(path, os.O_WRONLY, 0); err == nil {
			f.Close()
			return nil
		}
	}
	fatal(err)
	return nil
}

// createOutput returns the file openOutput created, or else creates
// path afresh, truncating the existing file.
func createOutput(f *os.File, path string) *os.File {
	if f != nil {
		return f
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	return f
}

// runOffline works from a saved release artifact instead of raw data:
// with a workload file it answers every query (one full-precision answer
// per line, in workload order), without one it dumps the noisy matrix as
// CSV — the same output a publish writes.
func runOffline(loadPath, quePath, outPath string, workers int) {
	f, err := os.Open(loadPath)
	if err != nil {
		fatal(err)
	}
	rel, err := privelet.Load(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	out := io.Writer(os.Stdout)
	if outPath != "" {
		of, err := os.Create(outPath)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := of.Close(); err != nil {
				fatal(err)
			}
		}()
		out = of
	}

	if quePath == "" {
		if err := writeMatrixCSV(out, rel.Matrix()); err != nil {
			fatal(err)
		}
		return
	}
	qf, err := os.Open(quePath)
	if err != nil {
		fatal(err)
	}
	defer qf.Close()
	// Stream the workload: parse → execute → write overlap in chunks, so
	// a million-query file never exists in memory whole. AnswerLines
	// renders with 'g'/-1, which round-trips the exact float64, so piped
	// answers stay bit-identical to the evaluator's.
	aw := workload.NewAnswerLines(out)
	src := workload.Stream(rel.Schema(), workload.NewLineSpecs(qf))
	delivered, err := rel.CountStream(context.Background(), src, aw.WriteChunk, workers)
	t := workload.Trailer{Answers: delivered, Status: workload.StatusOK}
	if err != nil {
		// Answers already on the way out stay out; the trailer marks the
		// stream as deliberately cut so downstream consumers don't read a
		// partial answer list as complete.
		t.Status = workload.StatusError
		t.Error = err.Error()
	}
	if cerr := aw.Close(t); cerr != nil {
		fatal(cerr)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "privelet: answered %d queries (%s)\n", delivered, rel)
}

// writeMatrixCSV emits coordinates plus noisy count per entry.
func writeMatrixCSV(w io.Writer, m *privelet.Matrix) error {
	bw := bufio.NewWriter(w)
	d := m.NumDims()
	coords := make([]int, d)
	data := m.Data()
	for off := range data {
		m.Coords(off, coords)
		for _, c := range coords {
			fmt.Fprintf(bw, "%d,", c)
		}
		fmt.Fprintf(bw, "%g\n", data[off])
	}
	return bw.Flush()
}

func fatal(err error) {
	for _, path := range created {
		os.Remove(path)
	}
	fmt.Fprintln(os.Stderr, "privelet:", err)
	os.Exit(1)
}
