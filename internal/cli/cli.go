// Package cli centralises the flag definitions and usage text of the SIEVE
// command-line tools. The binaries build their flag sets here, and the
// docs-drift test asserts that the usage blocks quoted under docs/ are
// byte-identical to what `sieve-rewrite -h` and `sieve-explain -h` print —
// so the documentation cannot rot away from the tools.
package cli

import (
	"flag"
	"strings"
	"time"
)

// RewriteOpts are sieve-rewrite's parsed flags.
type RewriteOpts struct {
	Dialect  string
	Querier  string
	Purpose  string
	Query    string
	Comments bool
	Corpus   bool
	Args     bool
}

// rewriteIntro is the header line of sieve-rewrite's usage text.
const rewriteIntro = `Usage: sieve-rewrite [flags] [< queries.sql]

Rewrites queries under the demo campus's policies and emits executable SQL
for an external backend. Queries come from -query, -corpus, or stdin
(";"-separated). For each query and dialect it prints the emitted SQL;
-args adds the bound-args list its placeholders reference.

Flags:
`

// RewriteFlags builds sieve-rewrite's flag set bound to an options struct.
func RewriteFlags() (*flag.FlagSet, *RewriteOpts) {
	opts := &RewriteOpts{}
	fs := flag.NewFlagSet("sieve-rewrite", flag.ExitOnError)
	fs.StringVar(&opts.Dialect, "dialect", "all", "emit dialect: mysql | postgres | sieve | all")
	fs.StringVar(&opts.Querier, "querier", "auto", "querier identity ('auto' picks the busiest)")
	fs.StringVar(&opts.Purpose, "purpose", "analytics", "query purpose")
	fs.StringVar(&opts.Query, "query", "", "single query to rewrite (overrides stdin)")
	fs.BoolVar(&opts.Args, "args", false, "print the bound-args list under each dialect's SQL")
	fs.BoolVar(&opts.Comments, "comments", false, "embed /* sieve */ guard-provenance comments")
	fs.BoolVar(&opts.Corpus, "corpus", false, "rewrite the built-in examples corpus instead of stdin")
	setUsage(fs, rewriteIntro)
	return fs, opts
}

// ExplainOpts are sieve-explain's parsed flags.
type ExplainOpts struct {
	Dialect string
	Query   string
	Querier string
	Purpose string
	Workers int
	Trace   bool
}

// explainIntro is the header line of sieve-explain's usage text.
const explainIntro = `Usage: sieve-explain [flags]

Shows what SIEVE does to a query over a generated demo campus: the guarded
expression, the strategy decision with its modelled costs, the rewritten
SQL, the per-dialect emitted SQL, the engine plan, and the executor's
counters.

Flags:
`

// ExplainFlags builds sieve-explain's flag set bound to an options struct.
func ExplainFlags(defaultQuery string) (*flag.FlagSet, *ExplainOpts) {
	opts := &ExplainOpts{}
	fs := flag.NewFlagSet("sieve-explain", flag.ExitOnError)
	fs.StringVar(&opts.Dialect, "dialect", "mysql", "engine dialect: mysql | postgres")
	fs.StringVar(&opts.Query, "query", defaultQuery, "query to explain")
	fs.StringVar(&opts.Querier, "querier", "auto", "querier identity ('auto' picks the busiest)")
	fs.StringVar(&opts.Purpose, "purpose", "analytics", "query purpose")
	fs.IntVar(&opts.Workers, "workers", 0, "parallel scan workers (0 = engine default, NumCPU)")
	fs.BoolVar(&opts.Trace, "trace", false, "print the execution's per-phase span tree")
	setUsage(fs, explainIntro)
	return fs, opts
}

// ServerOpts are sieve-server's parsed flags.
type ServerOpts struct {
	Addr           string
	Tokens         string
	DemoTokens     bool
	DataDir        string
	WALSync        string
	RequestTimeout time.Duration
	DrainTimeout   time.Duration
	SlowQuery      time.Duration
	MaxQueries     int
	SessionLimit   int
	Verbose        bool
}

// serverIntro is the header line of sieve-server's usage text.
const serverIntro = `Usage: sieve-server [flags]

Serves the demo campus behind SIEVE's policy-enforcing middleware over a
versioned HTTP/JSON protocol: bearer-token sessions, streamed NDJSON
results, server-side prepared statements, policy administration, and a
graceful SIGTERM drain. With -data-dir, mutations are write-ahead logged
and snapshotted there, and a restart recovers the acknowledged state.
GET /metrics serves Prometheus metrics, ?trace=1 on a query returns its
per-phase span tree, and -slow-query logs slow statements with a phase
breakdown. See docs/server.md for the protocol, docs/durability.md for
the log, and docs/observability.md for metrics and tracing.

Flags:
`

// ServerFlags builds sieve-server's flag set bound to an options struct.
func ServerFlags() (*flag.FlagSet, *ServerOpts) {
	opts := &ServerOpts{}
	fs := flag.NewFlagSet("sieve-server", flag.ExitOnError)
	fs.StringVar(&opts.Addr, "addr", "127.0.0.1:8743", "listen address")
	fs.StringVar(&opts.Tokens, "tokens", "", "token file: one 'token querier [purpose|-] [admin]' per line")
	fs.BoolVar(&opts.DemoTokens, "demo-tokens", false, "accept 'demo:<querier>[|<purpose>][|admin]' bearer tokens (INSECURE, demos only)")
	fs.StringVar(&opts.DataDir, "data-dir", "", "durability directory for WAL + snapshots (empty = in-memory only)")
	fs.StringVar(&opts.WALSync, "wal-sync", "always", "WAL fsync policy with -data-dir: always | interval | none")
	fs.DurationVar(&opts.RequestTimeout, "request-timeout", 30*time.Second, "per-query execution deadline, streaming included (0 = none)")
	fs.DurationVar(&opts.DrainTimeout, "drain-timeout", 15*time.Second, "SIGTERM: how long in-flight requests may finish before connections close")
	fs.DurationVar(&opts.SlowQuery, "slow-query", 0, "log queries at least this slow with a per-phase breakdown (0 = off)")
	fs.IntVar(&opts.MaxQueries, "max-queries", 64, "concurrent query cap across all sessions (0 = unlimited)")
	fs.IntVar(&opts.SessionLimit, "session-limit", 0, "open sessions allowed per querier (0 = unlimited)")
	fs.BoolVar(&opts.Verbose, "v", false, "log one structured line per request to stderr")
	setUsage(fs, serverIntro)
	return fs, opts
}

// BenchOpts are sieve-bench's parsed flags.
type BenchOpts struct {
	Scale   string
	Run     string
	List    bool
	Micro   bool
	Workers int
	Seed    int64
}

// benchIntro is the header line of sieve-bench's usage text.
const benchIntro = `Usage: sieve-bench [flags]

Regenerates the paper's evaluation tables and figures on the embedded
engine and prints them in the paper's layout; it writes no file. -run
picks experiments by id (see -list; an unknown id is an error), -scale
the corpus size, and -seed drives every workload generator and the
traffic soak from one master seed. -run traffic is the invariant soak:
concurrent Zipf-skewed queriers mix early-closed, drained, prepared, and
backend-shipped queries over the campus, mall, and hospital workloads —
in process and through a real sieve-server — under live policy churn,
with every returned row checked against the policies legal during its
query's lifetime. The run fails, and sieve-bench exits non-zero, on any
invariant violation. -micro measures the execution surface, see
docs/benchmarks.md. Performance is measured by bash benchmark/run.sh,
not here.

Flags:
`

// BenchFlags builds sieve-bench's flag set bound to an options struct.
func BenchFlags() (*flag.FlagSet, *BenchOpts) {
	opts := &BenchOpts{}
	fs := flag.NewFlagSet("sieve-bench", flag.ExitOnError)
	fs.StringVar(&opts.Scale, "scale", "test", "corpus scale: test | medium | bench")
	fs.StringVar(&opts.Run, "run", "all", "comma-separated experiment ids, or 'all'")
	fs.BoolVar(&opts.List, "list", false, "list experiment ids and exit")
	fs.BoolVar(&opts.Micro, "micro", false, "measure the Session/Stmt/Rows execution surface and exit")
	fs.IntVar(&opts.Workers, "workers", 0, "parallel scan workers per engine (0 = NumCPU); adds a scaling dimension to every experiment")
	fs.Int64Var(&opts.Seed, "seed", 1, "master seed for workload generation and the traffic soak")
	setUsage(fs, benchIntro)
	return fs, opts
}

// setUsage points the flag set's -h output at UsageText.
func setUsage(fs *flag.FlagSet, intro string) {
	fs.Usage = func() {
		out := fs.Output()
		_, _ = out.Write([]byte(usageText(fs, intro)))
	}
}

// usageText renders intro followed by the flag defaults.
func usageText(fs *flag.FlagSet, intro string) string {
	var b strings.Builder
	b.WriteString(intro)
	prev := fs.Output()
	fs.SetOutput(&b)
	fs.PrintDefaults()
	fs.SetOutput(prev)
	return b.String()
}

// RewriteUsage returns the exact text `sieve-rewrite -h` prints.
func RewriteUsage() string {
	fs, _ := RewriteFlags()
	return usageText(fs, rewriteIntro)
}

// ExplainUsage returns the exact text `sieve-explain -h` prints. The
// default query embeds the demo table name, which is part of the contract.
func ExplainUsage(defaultQuery string) string {
	fs, _ := ExplainFlags(defaultQuery)
	return usageText(fs, explainIntro)
}

// ServerUsage returns the exact text `sieve-server -h` prints.
func ServerUsage() string {
	fs, _ := ServerFlags()
	return usageText(fs, serverIntro)
}

// BenchUsage returns the exact text `sieve-bench -h` prints.
func BenchUsage() string {
	fs, _ := BenchFlags()
	return usageText(fs, benchIntro)
}
