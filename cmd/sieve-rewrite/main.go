// Command sieve-rewrite is the middleware's emission front door: it rewrites
// queries under the demo campus's policies and prints executable SQL for an
// external backend — the paper's deployment mode, where SIEVE fronts an
// unmodified MySQL or PostgreSQL (§5.3, §5.5).
//
//	echo "SELECT * FROM WiFi_Dataset" | sieve-rewrite -dialect postgres
//	sieve-rewrite -corpus -dialect all
//	sieve-rewrite -query "SELECT * FROM WiFi_Dataset LIMIT 5" -comments -args
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"strings"

	sieve "github.com/sieve-db/sieve"
	"github.com/sieve-db/sieve/internal/cli"
	"github.com/sieve-db/sieve/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout))
}

// run is the tool: it rewrites the queries args name (or stdin's), writes
// the emissions to stdout and returns the exit status.
func run(args []string, stdin io.Reader, stdout io.Writer) int {
	fs, opts := cli.RewriteFlags()
	_ = fs.Parse(args)

	var dialects []string
	switch opts.Dialect {
	case "all":
		dialects = []string{"sieve", "mysql", "postgres"}
	case "mysql", "postgres", "postgresql", "sieve":
		dialects = []string{opts.Dialect}
	default:
		fmt.Fprintf(os.Stderr, "unknown dialect %q (want mysql, postgres, sieve or all)\n", opts.Dialect)
		return 2
	}

	// The demo middleware runs its embedded engine as MySQL; emission is
	// engine-dialect-independent, so every output dialect comes from the
	// same rewrite.
	demo, err := workload.NewDemo(sieve.MySQL())
	if err != nil {
		log.Print(err)
		return 1
	}
	queries, err := gatherQueries(opts, demo.Campus, stdin)
	if err != nil {
		log.Print(err)
		return 1
	}
	if len(queries) == 0 {
		fmt.Fprintln(os.Stderr, "no queries: pass -query, -corpus, or pipe SQL on stdin")
		fs.Usage()
		return 2
	}
	qm := sieve.Metadata{Querier: demo.Querier(opts.Querier), Purpose: opts.Purpose}
	fmt.Fprintf(stdout, "-- querier: %s (purpose %s)\n", qm.Querier, qm.Purpose)

	var emitOpts []sieve.EmitOption
	if opts.Comments {
		emitOpts = append(emitOpts, sieve.WithProvenanceComments())
		if opts.Dialect == "sieve" {
			fmt.Fprintln(os.Stderr, "note: -comments does not apply to the sieve dialect (its round-trip form has no comments)")
		}
	}

	for _, q := range queries {
		fmt.Fprintf(stdout, "\n-- query%s: %s\n", label(q.Name), q.SQL)
		// One policy rewrite serves every dialect: emission works off the
		// rewritten AST plus its guard provenance.
		stmt, rep, err := demo.M.RewriteQuery(q.SQL, qm)
		if err != nil {
			log.Printf("rewrite: %v", err)
			return 1
		}
		for _, d := range dialects {
			eOpts := emitOpts
			if d == "sieve" {
				eOpts = nil // the round-trip dialect takes no options
			}
			e, err := sieve.EmitterFor(d, eOpts...)
			if err != nil {
				log.Print(err)
				return 1
			}
			em, err := e.Emit(stmt, rep.GuardedCTEs)
			if err != nil {
				log.Printf("emit for %s: %v", d, err)
				return 1
			}
			fmt.Fprintf(stdout, "-- dialect: %s\n%s\n", em.Dialect, em.SQL)
			if opts.Args {
				// Each arg prints as its SQL literal plus the native Go type
				// a database/sql driver would bind (storage.Value.Native).
				for i, a := range em.Args {
					fmt.Fprintf(stdout, "-- arg %d: %s (%T)\n", i+1, a.String(), a.Native())
				}
				if len(em.Args) == 0 && em.Dialect != "sieve" {
					fmt.Fprintln(stdout, "-- no bound args")
				}
			}
		}
	}
	return 0
}

func label(name string) string {
	if name == "" {
		return ""
	}
	return " " + name
}

// gatherQueries resolves the query source: -query beats -corpus beats
// stdin, where statements are ";"-separated.
func gatherQueries(opts *cli.RewriteOpts, campus *workload.Campus, stdin io.Reader) ([]workload.NamedQuery, error) {
	if opts.Query != "" {
		return []workload.NamedQuery{{SQL: opts.Query}}, nil
	}
	if opts.Corpus {
		return campus.CorpusQueries(), nil
	}
	raw, err := io.ReadAll(stdin)
	if err != nil {
		return nil, err
	}
	var out []workload.NamedQuery
	for _, part := range splitStatements(string(raw)) {
		if q := strings.TrimSpace(part); q != "" {
			out = append(out, workload.NamedQuery{SQL: q})
		}
	}
	return out, nil
}

// splitStatements splits on ";" outside single-quoted string literals
// (with SQL's ” escape handled by the quote state flipping twice).
func splitStatements(s string) []string {
	var out []string
	start := 0
	inString := false
	for i := 0; i < len(s); i++ {
		switch {
		case s[i] == '\'':
			inString = !inString
		case s[i] == ';' && !inString:
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}
