package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"aggcavsat/internal/obsv"
	"aggcavsat/internal/server"
)

// lockedBuffer is the daemon's stderr: run writes it while the test
// polls it for the listen address.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var addrRE = regexp.MustCompile(`msg="cavsatd serving" addr=(\S+)`)

// startDaemon runs cavsatd on a free loopback port and returns a client
// for it and a stop function that cancels the run's context and returns
// run's result. Cleanup stops a daemon the test left running.
func startDaemon(t *testing.T, args ...string) (*server.Client, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	stderr := &lockedBuffer{}
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, append([]string{"-listen", "127.0.0.1:0"}, args...), &bytes.Buffer{}, stderr)
	}()
	var once sync.Once
	var runErr error
	stop := func() error {
		once.Do(func() {
			cancel()
			runErr = <-done
		})
		return runErr
	}
	t.Cleanup(func() { stop() })
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := addrRE.FindStringSubmatch(stderr.String()); m != nil {
			return server.NewClient("http://" + m[1]), stop
		}
		select {
		case err := <-done:
			t.Fatalf("run exited before serving: %v\n%s", err, stderr.String())
		default:
		}
	}
	t.Fatalf("cavsatd never logged its address:\n%s", stderr.String())
	return nil, nil
}

const groupedSum = "SELECT l_returnflag, SUM(l_quantity) FROM lineitem GROUP BY l_returnflag"

// render prints a response the way cavsat prints a result.
func render(resp *server.QueryResponse) string {
	var b strings.Builder
	b.WriteString(strings.Join(resp.Columns, " | ") + "\n")
	for _, row := range resp.Rows {
		var cells []string
		for _, k := range row.Key {
			cells = append(cells, fmt.Sprint(k))
		}
		for _, r := range row.Ranges {
			cells = append(cells, r.Text)
		}
		b.WriteString(strings.Join(cells, " | ") + "\n")
	}
	return b.String()
}

// TestRunGolden serves the default -dbgen demo instance with a journal,
// answers a grouped SUM over HTTP, and shuts down on cancel with the
// journal flushed.
func TestRunGolden(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	cl, stop := startDaemon(t, "-dbgen", "-journal", journal)
	infos, err := cl.Instances(context.Background())
	if err != nil || len(infos) != 1 || infos[0].Name != "demo" || infos[0].Planner != "auto" {
		t.Fatalf("instances = %+v, %v", infos, err)
	}
	resp, err := cl.Query(context.Background(), &server.QueryRequest{SQL: groupedSum})
	if err != nil {
		t.Fatal(err)
	}
	const want = "l_returnflag | SUM(l_quantity)\nA | [47569, 51335]\nN | [50560, 54335]\nR | [50236, 53523]\n"
	if got := render(resp); got != want {
		t.Errorf("answer =\n%s\nwant\n%s", got, want)
	}
	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	entries, err := obsv.ReadJournalFile(journal)
	if err != nil || len(entries) != 1 {
		t.Errorf("journal after shutdown: %d lines (%v), want 1", len(entries), err)
	}
}

// TestHotAttachGetsDaemonOptions pins that a tenant attached through
// POST /admin/instances runs with the daemon's engine flags: with
// -flight-dir and a 1 ns -slow-query, its first query leaves a bundle.
func TestHotAttachGetsDaemonOptions(t *testing.T) {
	bank := t.TempDir()
	for name, content := range map[string]string{
		"schema.txt": "relation Acc (AID:string CITY:string BAL:int) key AID\n",
		"acc.csv":    "AID,CITY,BAL\nA1,LA,100\nA2,LA,50\nA2,SF,70\nA3,SJ,30\n",
	} {
		if err := os.WriteFile(filepath.Join(bank, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	flights := filepath.Join(t.TempDir(), "flights")
	cl, _ := startDaemon(t, "-data", "bank="+bank, "-flight-dir", flights, "-slow-query", "1ns")
	body := strings.NewReader(fmt.Sprintf(`{"name": "hot", "dir": %q}`, bank))
	resp, err := http.Post(cl.BaseURL+"/admin/instances", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attach status = %d", resp.StatusCode)
	}
	if _, err := cl.Query(context.Background(), &server.QueryRequest{Instance: "hot", SQL: "SELECT SUM(BAL) FROM Acc"}); err != nil {
		t.Fatal(err)
	}
	bundles, _ := filepath.Glob(filepath.Join(flights, "flight-*.json"))
	if len(bundles) != 1 {
		t.Errorf("flight bundles = %v, want one from the hot-attached tenant", bundles)
	}
}

// buildTool compiles one of the repository's binaries for a test.
func buildTool(t *testing.T, pkg string) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go command is needed to build %s: %v", pkg, err)
	}
	out := filepath.Join(t.TempDir(), filepath.Base(pkg))
	if b, err := exec.Command(goTool, "build", "-o", out, pkg).CombinedOutput(); err != nil {
		t.Fatalf("go build %s: %v\n%s", pkg, err, b)
	}
	return out
}

// TestDatagenDirMatchesDbgen pins the single set of demo defaults: a
// default datagen directory answered by cavsat gives the same answer as
// a default cavsatd -dbgen tenant queried over HTTP.
func TestDatagenDirMatchesDbgen(t *testing.T) {
	datagen, cavsat := buildTool(t, "aggcavsat/cmd/datagen"), buildTool(t, "aggcavsat/cmd/cavsat")
	dir := filepath.Join(t.TempDir(), "tpch")
	if b, err := exec.Command(datagen, "-out", dir).CombinedOutput(); err != nil {
		t.Fatalf("datagen: %v\n%s", err, b)
	}
	local, err := exec.Command(cavsat, "-data", dir, groupedSum).Output()
	if err != nil {
		t.Fatalf("cavsat: %v", err)
	}
	cl, _ := startDaemon(t, "-dbgen")
	resp, err := cl.Query(context.Background(), &server.QueryRequest{SQL: groupedSum})
	if err != nil {
		t.Fatal(err)
	}
	if got := render(resp); got != string(local) {
		t.Errorf("cavsatd -dbgen answered\n%s\ncavsat over the datagen directory answered\n%s", got, local)
	}
}
