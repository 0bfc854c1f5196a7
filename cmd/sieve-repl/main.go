// Command sieve-repl is an interactive shell over a generated demo campus:
// type SQL, see policy-compliant results as a chosen querier. Each
// identity switch opens a fresh sieve.Session; results stream through
// sieve.Rows, so only the rows actually printed are produced, and Ctrl-C
// cancels a long-running query through its context. Middleware
// meta-commands start with a backslash.
//
//	\querier u:42        switch querier identity (opens a new session)
//	\purpose analytics   switch query purpose (opens a new session)
//	\rewrite             toggle printing the rewritten SQL
//	\trace               toggle printing each query's per-phase span tree
//	\prepare <sql>       prepare a statement; run it with \exec
//	\exec                execute the prepared statement for this session
//	\backend <spec>      route queries through an execution backend:
//	                     fake-mysql | fake-postgres | driver://dsn | off.
//	                     The fakes are seeded with the session's own rows,
//	                     so results round-trip the full emit -> ship ->
//	                     decode wire path.
//	\policies            count policies for the current metadata
//	\guards              show the cached guarded expression
//	\quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"

	sieve "github.com/sieve-db/sieve"
	"github.com/sieve-db/sieve/internal/backend"
	"github.com/sieve-db/sieve/internal/backend/backendtest"
	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/workload"
)

// repl holds the shell's state: one middleware, one current session, at
// most one prepared statement, and an optional execution backend queries
// are routed through.
type repl struct {
	m           *sieve.Middleware
	sess        *sieve.Session
	prepared    *sieve.Stmt
	showRewrite bool
	showTrace   bool

	backend     sieve.Backend
	backendFake *backendtest.Fake
}

func main() {
	dialect := flag.String("dialect", "mysql", "engine dialect: mysql | postgres")
	flag.Parse()

	var d sieve.Dialect
	switch *dialect {
	case "mysql":
		d = sieve.MySQL()
	case "postgres":
		d = sieve.Postgres()
	default:
		fmt.Fprintf(os.Stderr, "unknown dialect %q\n", *dialect)
		os.Exit(2)
	}

	campus, err := workload.BuildCampus(workload.TestCampusConfig(), d)
	if err != nil {
		log.Fatal(err)
	}
	policies := campus.GeneratePolicies(workload.TestPolicyConfig())
	store, err := sieve.NewStore(campus.DB)
	if err != nil {
		log.Fatal(err)
	}
	if err := store.BulkLoad(policies); err != nil {
		log.Fatal(err)
	}
	m, err := sieve.New(store, sieve.WithGroups(campus.Groups()))
	if err != nil {
		log.Fatal(err)
	}
	if err := m.Protect(workload.TableWiFi); err != nil {
		log.Fatal(err)
	}

	r := &repl{m: m}
	r.sess = m.NewSession(sieve.Metadata{
		Querier: workload.TopQueriers(policies, 1, 1)[0],
		Purpose: "analytics",
	})

	fmt.Printf("sieve-repl on %s dialect — %d events, %d policies\n",
		d.Name(), campus.NumEvents, len(policies))
	qm := r.sess.Metadata()
	fmt.Printf("querier=%s purpose=%s; \\quit to exit, \\help for commands\n", qm.Querier, qm.Purpose)

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("sieve> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "\\") {
			if r.handleMeta(line) {
				return
			}
			continue
		}
		if r.showRewrite {
			text, rep, err := r.sess.Rewrite(line)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println("--", text)
			for _, dec := range rep.Decisions {
				fmt.Printf("-- %s: %s, %d guards, %d policies\n",
					dec.Relation, dec.Strategy, dec.Guards, dec.Policies)
			}
		}
		if r.backend != nil {
			r.runOnBackend(line)
			continue
		}
		r.run(func(ctx context.Context) (*sieve.Rows, error) {
			return r.sess.Query(ctx, line)
		})
	}
}

// run executes one query under an interrupt-cancellable context and
// streams its rows to the terminal, closing early past maxRows. With
// \trace on, the query runs under a span tree printed after its rows.
func (r *repl) run(open func(ctx context.Context) (*sieve.Rows, error)) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var tr *obs.Span
	if r.showTrace {
		tr = obs.NewTrace("query")
		ctx = obs.WithSpan(ctx, tr)
	}
	rows, err := open(ctx)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer rows.Close()
	printRows(rows)
	if tr != nil {
		tr.Finish()
		tr.Node().Format(os.Stdout)
	}
}

// runOnBackend ships one query through the active backend: rewrite, emit
// for the backend's dialect, execute there, decode and print. Fake
// backends are seeded with the embedded engine's result first, so the
// printed rows really travelled the encode -> SQL -> decode wire path.
func (r *repl) runOnBackend(line string) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if r.backendFake != nil {
		res, err := r.sess.Execute(ctx, line)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		r.backendFake.Push(backendtest.ResultFromRows(res.Columns, res.Rows))
	}
	em, err := r.sess.RewriteSQL(line, r.backend.Dialect())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if r.showRewrite {
		fmt.Printf("-- shipped to %s: %s\n", r.backend.Name(), em.SQL)
		fmt.Printf("-- with %d bound args\n", len(em.Args))
	}
	rows, err := r.backend.Query(ctx, em, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer rows.Close()
	printRows(rows)
}

// execOnBackend runs the prepared statement through the active backend
// from its cached per-dialect emission (sieve.BackendStmtQuery), seeding
// fakes with the embedded result first.
func (r *repl) execOnBackend() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if r.backendFake != nil {
		res, err := r.prepared.Execute(ctx, r.sess)
		if err != nil {
			fmt.Println("error:", err)
			return
		}
		r.backendFake.Push(backendtest.ResultFromRows(res.Columns, res.Rows))
	}
	rows, err := sieve.BackendStmtQuery(ctx, r.backend, r.sess, r.prepared)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	defer rows.Close()
	printRows(rows)
	fmt.Printf("(%d rewrites amortised over executions)\n", r.prepared.Rewrites())
}

// setBackend resolves a \backend spec, closing any previous backend.
func (r *repl) setBackend(spec string) {
	if r.backend != nil {
		r.backend.Close()
		r.backend, r.backendFake = nil, nil
	}
	if spec == "off" {
		fmt.Println("backend = embedded session (direct)")
		return
	}
	b, fake, err := backend.For(spec)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	r.backend, r.backendFake = b, fake
	fmt.Printf("backend = %s (dialect %s)\n", b.Name(), b.Dialect())
}

func (r *repl) handleMeta(line string) (quit bool) {
	fields := strings.Fields(line)
	qm := r.sess.Metadata()
	switch fields[0] {
	case "\\quit", "\\q":
		return true
	case "\\help":
		fmt.Println("\\querier <id> | \\purpose <p> | \\rewrite | \\trace | \\prepare <sql> | \\exec | \\backend <spec> | \\policies | \\guards | \\quit")
	case "\\querier":
		if len(fields) > 1 {
			qm.Querier = fields[1]
			r.sess = r.m.NewSession(qm)
		}
		fmt.Println("querier =", qm.Querier)
	case "\\purpose":
		if len(fields) > 1 {
			qm.Purpose = fields[1]
			r.sess = r.m.NewSession(qm)
		}
		fmt.Println("purpose =", qm.Purpose)
	case "\\rewrite":
		r.showRewrite = !r.showRewrite
		fmt.Println("show rewrite =", r.showRewrite)
	case "\\trace":
		r.showTrace = !r.showTrace
		fmt.Println("show trace =", r.showTrace)
	case "\\prepare":
		sql := strings.TrimSpace(strings.TrimPrefix(line, "\\prepare"))
		if sql == "" {
			fmt.Println("usage: \\prepare <sql>")
			break
		}
		stmt, err := r.m.Prepare(sql)
		if err != nil {
			fmt.Println("error:", err)
			break
		}
		r.prepared = stmt
		fmt.Println("prepared:", sql)
	case "\\exec":
		if r.prepared == nil {
			fmt.Println("nothing prepared; \\prepare <sql> first")
			break
		}
		if r.backend != nil {
			r.execOnBackend()
			break
		}
		r.run(func(ctx context.Context) (*sieve.Rows, error) {
			return r.prepared.Query(ctx, r.sess)
		})
		fmt.Printf("(%d rewrites amortised over executions)\n", r.prepared.Rewrites())
	case "\\backend":
		if len(fields) < 2 {
			name := "off (embedded session)"
			if r.backend != nil {
				name = r.backend.Name()
			}
			fmt.Println("backend =", name)
			fmt.Println("usage: \\backend fake-mysql | fake-postgres | driver://dsn | off")
			break
		}
		r.setBackend(fields[1])
	case "\\policies":
		ps := r.m.Store().PoliciesFor(qm, workload.TableWiFi, r.m.Groups())
		fmt.Printf("%d policies apply to %s/%s on %s\n", len(ps), qm.Querier, qm.Purpose, workload.TableWiFi)
	case "\\guards":
		if ge, ok := r.m.GuardedExpression(qm, workload.TableWiFi); ok {
			fmt.Print(ge.String())
		} else {
			fmt.Println("no cached guarded expression (run a query first)")
		}
	default:
		fmt.Println("unknown command; \\help for help")
	}
	return false
}

// rowStream is the printable surface sieve.Rows and sieve.BackendRows
// share.
type rowStream interface {
	Columns() []string
	Next() bool
	Row() sieve.Row
	Err() error
	Close() error
}

// printRows streams a result to the terminal. Past maxRows the Rows is
// closed, which terminates the underlying scan — the remaining row count
// is intentionally not known.
func printRows(rows rowStream) {
	const maxRows = 20
	fmt.Println(strings.Join(rows.Columns(), " | "))
	n := 0
	for rows.Next() {
		if n == maxRows {
			rows.Close()
			fmt.Println("... (output truncated; scan stopped)")
			break
		}
		r := rows.Row()
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = v.String()
		}
		fmt.Println(strings.Join(cells, " | "))
		n++
	}
	if err := rows.Err(); err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("(%d rows shown)\n", n)
}
