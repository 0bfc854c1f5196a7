package sieve_test

// The end-to-end durability acceptance gate: the real cmd/sieve-server
// binary, booted with -data-dir, is fed acknowledged mutations over the
// wire — a row insert through the admin row endpoint, two policy grants,
// one revocation — then killed with SIGKILL mid-flight and restarted on
// the same directory. The restarted server must expose exactly the
// acknowledged state: the inserted row flows to the granted querier, the
// revoked grant stays revoked, and the WAL keeps accepting new writes.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/sieve-db/sieve/client"
	"github.com/sieve-db/sieve/internal/obs"
	"github.com/sieve-db/sieve/internal/server"
	"github.com/sieve-db/sieve/internal/storage"
	"github.com/sieve-db/sieve/internal/workload"
)

// buildServerBinary compiles cmd/sieve-server into a temp dir once per
// test run.
func buildServerBinary(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sieve-server")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sieve-server")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building sieve-server: %v\n%s", err, out)
	}
	return bin
}

// serverProc is one running sieve-server child process.
type serverProc struct {
	cmd    *exec.Cmd
	url    string
	stdout bytes.Buffer
	stderr bytes.Buffer
}

// startServer boots the binary on an ephemeral port and waits for its
// listening line (which carries the resolved address).
func startServer(t *testing.T, bin, dataDir string) *serverProc {
	t.Helper()
	p := &serverProc{}
	p.cmd = exec.Command(bin,
		"-demo-tokens", "-addr", "127.0.0.1:0",
		"-data-dir", dataDir, "-wal-sync", "always",
		"-drain-timeout", "5s",
	)
	stdout, err := p.cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p.cmd.Stderr = &p.stderr
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			p.stdout.WriteString(line + "\n")
			if i := strings.Index(line, "listening on http://"); i >= 0 {
				rest := line[i+len("listening on "):]
				if j := strings.IndexByte(rest, ' '); j >= 0 {
					rest = rest[:j]
				}
				select {
				case urlCh <- rest:
				default:
				}
			}
		}
	}()
	select {
	case p.url = <-urlCh:
	case <-time.After(60 * time.Second):
		_ = p.cmd.Process.Kill()
		t.Fatalf("server never announced its address\nstdout:\n%s\nstderr:\n%s", p.stdout.String(), p.stderr.String())
	}
	waitHealthy(t, p.url)
	return p
}

func waitHealthy(t *testing.T, url string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("server at %s never became healthy", url)
}

// insertRowWire drives the admin row endpoint directly (the Go client
// has no helper for it; the endpoint exists for durability testing).
func insertRowWire(t *testing.T, url, table string, vals []server.WireValue) int64 {
	t.Helper()
	body, err := json.Marshal(server.RowRequest{Values: vals})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/tables/"+table+"/rows", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer demo:root|admin")
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e server.ErrorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("insert row: status %d: %s", resp.StatusCode, e.Error)
	}
	var rr server.RowResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	return rr.RowID
}

// countRows runs the marker query as querier and returns how many rows
// its policies let through.
func countRows(t *testing.T, url, querier string, wifiAP int64) int {
	t.Helper()
	ctx := context.Background()
	sess, err := client.New(url, "demo:"+querier+"|analytics").OpenSession(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)
	rows, err := sess.Query(ctx,
		fmt.Sprintf("SELECT id, owner FROM %s WHERE wifiAP = %d", workload.TableWiFi, wifiAP))
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestServerCrashDurabilityAcceptance(t *testing.T) {
	bin := buildServerBinary(t)
	dataDir := t.TempDir()
	ctx := context.Background()

	// The marker row lives on an AP number no generated event uses and an
	// owner id no campus user has, so visibility is decided entirely by
	// the policies this test writes.
	const (
		markerAP    = int64(777777)
		markerOwner = int64(424242)
	)
	markerRow := func(id int64) []server.WireValue {
		return []server.WireValue{
			server.EncodeValue(storage.NewInt(id)),
			server.EncodeValue(storage.NewInt(markerAP)),
			server.EncodeValue(storage.NewInt(markerOwner)),
			server.EncodeValue(storage.NewTime(3600)),
			server.EncodeValue(storage.NewDate(19000)),
		}
	}

	p1 := startServer(t, bin, dataDir)
	admin := client.New(p1.url, "demo:root|admin")

	insertRowWire(t, p1.url, workload.TableWiFi, markerRow(999999))
	grantNobody, err := admin.AddPolicy(ctx, client.Policy{
		Owner: markerOwner, Querier: "nobody", Purpose: "analytics", Relation: workload.TableWiFi,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := admin.AddPolicy(ctx, client.Policy{
		Owner: markerOwner, Querier: "alice", Purpose: "analytics", Relation: workload.TableWiFi,
	}); err != nil {
		t.Fatal(err)
	}
	if n := countRows(t, p1.url, "nobody", markerAP); n != 1 {
		t.Fatalf("granted querier sees %d marker rows before the crash, want 1", n)
	}
	// Revoke nobody's grant; its loss after the crash is the failure
	// mode that matters most.
	if err := admin.RevokePolicy(ctx, grantNobody); err != nil {
		t.Fatal(err)
	}
	if n := countRows(t, p1.url, "nobody", markerAP); n != 0 {
		t.Fatalf("revoked querier still sees %d rows before the crash", n)
	}

	// Power cut: SIGKILL, no drain, no shutdown checkpoint.
	if err := p1.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	_ = p1.cmd.Wait()

	p2 := startServer(t, bin, dataDir)
	if !strings.Contains(p2.stdout.String(), "recovered") {
		t.Fatalf("restarted server did not report a recovery:\n%s", p2.stdout.String())
	}
	// Acknowledged state survived: alice's grant and the marker row are
	// back, nobody's revocation is not forgotten.
	if n := countRows(t, p2.url, "alice", markerAP); n != 1 {
		t.Fatalf("after recovery alice sees %d marker rows, want 1", n)
	}
	if n := countRows(t, p2.url, "nobody", markerAP); n != 0 {
		t.Fatalf("after recovery the revoked grant leaked %d rows", n)
	}
	// The binary wires one registry into both the server and the WAL
	// (cmd/sieve-server/main.go), which no in-process test sees: its
	// /metrics must parse and carry the server's query counter next to
	// the replay this boot just did.
	resp, err := http.Get(p2.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/metrics of the real binary does not parse: %v", err)
	}
	for _, name := range []string{"sieve_queries_total", "sieve_wal_records_replayed"} {
		if f := fams[name]; f == nil || f.Value < 1 {
			t.Fatalf("/metrics after recovery: %s = %+v, want >= 1", name, f)
		}
	}
	// And the recovered server keeps logging: a fresh insert is visible
	// through the surviving grant.
	insertRowWire(t, p2.url, workload.TableWiFi, markerRow(999998))
	if n := countRows(t, p2.url, "alice", markerAP); n != 2 {
		t.Fatalf("post-recovery insert not visible: alice sees %d rows, want 2", n)
	}

	// Clean drain to finish: exit code 0, no leftover process.
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := p2.cmd.Wait(); err != nil {
		t.Fatalf("drain after recovery: %v\nstderr:\n%s", err, p2.stderr.String())
	}
}
