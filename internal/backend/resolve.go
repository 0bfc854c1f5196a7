package backend

import (
	"database/sql"
	"fmt"
	"strings"

	"github.com/sieve-db/sieve/internal/backend/backendtest"
)

// For resolves a backend spec to a live Backend:
//
//	fake-mysql       Remote over the recording fake driver, mysql dialect
//	fake-postgres    Remote over the recording fake driver, postgres dialect
//	<driver>://<dsn> Remote over sql.Open(driver, dsn) — a real server;
//	                 the driver must be compiled into the binary
//	                 (this repository bakes none in), and the scheme
//	                 picks the dialect: mysql, or postgres/postgresql/pgx
//
// The returned Fake is non-nil only for the fake-* specs, so callers can
// seed canned rows and inspect the recorded traffic. Fakes accept
// Δ-bearing emissions (they execute nothing); real DSNs refuse them by
// default. A "+delta" scheme suffix — "mysql+delta://…" — declares the
// sieve_delta helper installed on the server (WithDeltaHelper), letting
// Δ-bearing emissions through.
func For(spec string) (Backend, *backendtest.Fake, error) {
	switch spec {
	case "fake-mysql", "fake-postgres":
		fake := backendtest.New()
		b, err := NewRemote(sql.OpenDB(fake.Connector()), strings.TrimPrefix(spec, "fake-"), WithDeltaHelper())
		if err != nil {
			return nil, nil, err
		}
		return b, fake, nil
	}
	drv, dsn, ok := strings.Cut(spec, "://")
	if !ok {
		return nil, nil, fmt.Errorf("backend: unknown spec %q (want fake-mysql, fake-postgres or driver://dsn)", spec)
	}
	var opts []RemoteOption
	if base, found := strings.CutSuffix(drv, "+delta"); found {
		drv = base
		opts = append(opts, WithDeltaHelper())
	}
	var dialect string
	switch drv {
	case "mysql":
		dialect = "mysql"
	case "postgres", "postgresql", "pgx":
		dialect = "postgres"
	default:
		return nil, nil, fmt.Errorf("backend: cannot infer a dialect from driver %q (want mysql, postgres, postgresql or pgx, each optionally +delta)", drv)
	}
	pool, err := sql.Open(drv, dsn)
	if err != nil {
		return nil, nil, fmt.Errorf("backend: open %s: %w (is the %q driver compiled into this binary?)", spec, err, drv)
	}
	b, err := NewRemote(pool, dialect, opts...)
	if err != nil {
		pool.Close()
		return nil, nil, err
	}
	return b, nil, nil
}
