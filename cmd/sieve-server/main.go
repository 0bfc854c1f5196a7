// Command sieve-server runs SIEVE as a stand-alone networked middleware:
// the demo campus and its policy corpus behind the versioned HTTP/JSON
// protocol of internal/server, queried with the top-level client package
// or plain curl.
//
//	sieve-server -demo-tokens &
//	curl -s http://127.0.0.1:8743/healthz
//	curl -s -H 'Authorization: Bearer demo:profile:staff|analytics' \
//	     -X POST http://127.0.0.1:8743/v1/sessions -d '{}'
//
// Production-shaped deployments list bearer tokens in a file (-tokens);
// the demo-token scheme exists so the campus is explorable with zero
// setup. SIGTERM and SIGINT drain gracefully: /healthz flips to 503, new
// work is rejected, and in-flight streams get -drain-timeout to finish.
//
// With -data-dir the server is durable: every acknowledged mutation (row
// writes, policy grants and revocations, Protect calls) is write-ahead
// logged into the directory before it applies, snapshots bound replay,
// and the next start with the same -data-dir recovers exactly the
// acknowledged state — see docs/durability.md. A clean drain ends with a
// checkpoint so the following boot replays nothing.
package main

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	sieve "github.com/sieve-db/sieve"
	"github.com/sieve-db/sieve/internal/cli"
	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/server"
	"github.com/sieve-db/sieve/internal/wal"
	"github.com/sieve-db/sieve/internal/workload"
)

func main() {
	fs, opts := cli.ServerFlags()
	_ = fs.Parse(os.Args[1:])
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(opts *cli.ServerOpts) error {
	cfg := server.Config{
		AllowDemoTokens:      opts.DemoTokens,
		MaxSessionsPerTenant: opts.SessionLimit,
		MaxConcurrentQueries: opts.MaxQueries,
		RequestTimeout:       opts.RequestTimeout,
		SlowQuery:            opts.SlowQuery,
		Registry:             obs.NewRegistry(),
	}
	if opts.Tokens != "" {
		f, err := os.Open(opts.Tokens)
		if err != nil {
			return err
		}
		cfg.Tokens, err = server.ParseTokens(f)
		f.Close()
		if err != nil {
			return err
		}
	}
	if opts.Verbose {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	var (
		demo *workload.Demo
		mgr  *wal.Manager
	)
	if opts.DataDir != "" {
		syncPolicy, err := wal.ParseSyncPolicy(opts.WALSync)
		if err != nil {
			return err
		}
		dd, err := workload.NewDurableDemo(sieve.MySQL(), opts.DataDir, wal.Options{Sync: syncPolicy})
		if err != nil {
			return err
		}
		demo, mgr = &dd.Demo, dd.Manager
		// The WAL's histograms land in the same registry the server
		// scrapes at /metrics.
		mgr.SetRegistry(cfg.Registry)
		if rec := dd.Recovered; rec != nil {
			fmt.Printf("recovered %s: snapshot lsn %d + %d replayed records in %v (torn tail: %d bytes)\n",
				opts.DataDir, rec.SnapshotLSN, rec.Replayed, rec.Duration.Round(time.Millisecond), rec.TornBytes)
		}
	} else {
		d, err := workload.NewDemo(sieve.MySQL())
		if err != nil {
			return err
		}
		demo = d
	}
	cfg.Middleware = demo.M

	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", opts.Addr)
	if err != nil {
		return err
	}
	fmt.Printf("sieve-server listening on http://%s (%d policies, querier hint: %s)\n",
		l.Addr(), len(demo.Policies), demo.Querier("auto"))

	// SIGTERM/SIGINT starts the drain; a second signal aborts it.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case err := <-done:
		closeWAL(mgr)
		return err
	case <-sigCtx.Done():
		stop()
		fmt.Fprintf(os.Stderr, "draining (up to %v)...\n", opts.DrainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), opts.DrainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "drain deadline passed; connections closed: %v\n", err)
		}
		err := <-done
		closeWAL(mgr)
		return err
	}
}

// closeWAL ends a durable run cleanly: the final checkpoint means the
// next boot restores one snapshot and replays nothing.
func closeWAL(mgr *wal.Manager) {
	if mgr == nil {
		return
	}
	if err := mgr.Checkpoint(); err != nil {
		fmt.Fprintf(os.Stderr, "shutdown checkpoint failed (WAL still covers the state): %v\n", err)
	}
	if err := mgr.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "closing WAL: %v\n", err)
	}
}
