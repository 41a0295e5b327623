package main

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"aggcavsat"
	"aggcavsat/internal/db"
	"aggcavsat/internal/obsv"
	"aggcavsat/internal/server"
	"aggcavsat/internal/tpch"
)

// DBGen instance of the keys-mode workloads: the cavsatd -dbgen /
// aggbench replay generator at sf 0.01 with 10 % injected inconsistency.
// The data is fixed; the seed varies the statement stream.
const (
	tpchSF      = 0.01
	tpchPercent = 10
	tpchSeed    = 2022
)

// serveRate is the open-loop arrival rate of the serve workload: about a
// sixth of the 92 requests/s that two closed-loop connections reach on a
// 2-core machine. At a third of that capacity the median latency from
// the scheduled send was 1.3 to 1.7 times the server's own median
// time, so queueing multiplied every change in machine speed; at a
// sixth it is 1.1 to 1.3 times.
const serveRate = 15.0

// serveRepeatEvery makes every fourth serve request repeat an earlier
// statement of the stream.
const serveRepeatEvery = 4

// serveBlock is the latency block of serve: 20 requests hold one cycle
// of the 15 templates and five repeats (1.3 seconds at serveRate).
const serveBlock = 20

// tpchProbe is the statement a data refresh waits for: cheap to answer,
// but only after the fresh engine has grouped the new instance's keys.
const tpchProbe = "SELECT COUNT(*) FROM region"

// served is the part shared by the two HTTP workloads: an in-process
// cavsatd (server.New + server.Start) on a loopback port and a client
// with at most nproc connections.
type served struct {
	reg *obsv.Registry
	srv *server.Server
	run *server.Running
	cl  *server.Client
}

func startServer() (*served, error) {
	s := &served{reg: obsv.NewRegistry()}
	s.srv = server.New(server.Config{Planner: aggcavsat.PlannerAuto, Metrics: s.reg})
	run, err := server.Start("127.0.0.1:0", s.srv)
	if err != nil {
		return nil, err
	}
	s.run = run
	s.cl = server.NewClient("http://" + run.Addr())
	s.cl.HTTPClient = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: nproc, MaxConnsPerHost: nproc},
	}
	return s, nil
}

// attach opens a System over in with the server's engine options and
// re-attaches tenant name to it, returning the Attach call's duration.
func (s *served) attach(name string, in *db.Instance, opts aggcavsat.Options) (time.Duration, error) {
	opts.Planner = aggcavsat.PlannerAuto
	opts.Metrics = s.reg
	sys, err := aggcavsat.Open(in, opts)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	s.srv.Attach(name, "", sys, in, opts.DenialConstraints)
	return time.Since(start), nil
}

// query issues one statement and fills the sample's outcome fields.
func (s *served) query(ctx context.Context, tenant string, x *sample, tr *tracer, trace uint64, parent *openSpan) {
	var resp *server.QueryResponse
	var err error
	d := tr.timed(trace, parent, "server", "Client.Query", func() {
		resp, err = s.cl.Query(ctx, &server.QueryRequest{Instance: tenant, SQL: x.st.SQL})
	})
	x.rttMS = ms(d)
	if x.out = classify(err); x.out != outcomeOK {
		return
	}
	x.digest, x.route, x.cached, x.serverMS = resp.Digest, resp.Route, resp.Cached, resp.ElapsedMS
}

func (s *served) close() {
	s.run.Close()
	s.cl.HTTPClient.CloseIdleConnections()
}

// serveBench is the serve workload: an open-loop stream of TPC-H
// variants against a keys-mode tenant under the server's defaults.
type serveBench struct {
	*served
	seed uint64
	in   *db.Instance
	snap string
}

func setupServe(ctx context.Context, dir string, seed uint64) (bench, error) {
	in, err := tpch.DemoInstance(tpchSF, tpchPercent, tpchSeed)
	if err != nil {
		return nil, err
	}
	s, err := startServer()
	if err != nil {
		return nil, err
	}
	b := &serveBench{served: s, seed: seed, in: in, snap: filepath.Join(dir, "tpch.snapshot")}
	if _, err := s.attach("tpch", in, aggcavsat.Options{}); err != nil {
		b.close()
		return nil, err
	}
	// Warm-up: the paper's fifteen queries through the tenant's engine
	// (bypassing the result cache) fill the instance's key groups, the
	// rewriting indexes and the evaluator's hash indexes; one HTTP probe
	// opens the connections.
	t, _ := s.srv.Tenant("tpch")
	for _, q := range append(tpch.ScalarQueries(), tpch.GroupedQueries()...) {
		if _, err := t.System().QueryContext(ctx, q.SQL); err != nil {
			b.close()
			return nil, err
		}
	}
	if _, err := s.cl.Query(ctx, &server.QueryRequest{Instance: "tpch", SQL: tpchProbe}); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// measure sends rate×seconds requests on a fixed schedule over nproc
// workers. Each request is timed from its scheduled send, so a stall
// charges every request queued behind it.
func (b *serveBench) measure(ctx context.Context, ph *phase, seconds float64, tr *tracer) error {
	n := int(serveRate * seconds)
	stream := Stream(b.seed, n, tpchTemplates, serveRepeatEvery)
	samples := make([]sample, n)
	t0 := time.Now().Add(10 * time.Millisecond)
	var next atomic.Int64
	var last atomic.Int64 // completion offset of the latest answer, ns
	var wg sync.WaitGroup
	for w := 0; w < nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := t0.Add(time.Duration(float64(i) / serveRate * float64(time.Second)))
				time.Sleep(time.Until(due))
				x := &samples[i]
				x.st, x.timed = stream[i], true
				x.lag = time.Since(due)
				str := tr.every(i)
				x.traced = str != nil
				trace := str.newTrace()
				root := str.start(trace, nil, "bench", "statement "+x.st.Template)
				b.query(ctx, "tpch", x, str, trace, root)
				root.end()
				done := time.Since(t0)
				x.latency = done - due.Sub(t0)
				for {
					cur := last.Load()
					if int64(done) <= cur || last.CompareAndSwap(cur, int64(done)) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	ph.samples = append(ph.samples, samples...)
	ph.wall = time.Duration(last.Load())
	return nil
}

// refresh times n data refreshes on a second server: each opens the
// snapshot of the same data anew, attaches it and waits for the probe's
// answer. The second server and its snapshots are released before the
// window, so the window starts from the state set-up left.
func (b *serveBench) refresh(ctx context.Context, ph *phase, n int, tr *tracer) error {
	if err := saveSnapshot(b.in, b.snap); err != nil {
		return err
	}
	rs, err := startServer()
	if err != nil {
		return err
	}
	var prev *db.Snapshot
	defer func() {
		rs.close()
		if prev != nil {
			prev.Close()
		}
		debug.FreeOSMemory()
	}()
	for i := 0; i < n; i++ {
		// Each refresh starts on a collected heap with its free pages
		// returned to the system, so every sample pays the same page
		// faults and none inherits garbage from the one before.
		debug.FreeOSMemory()
		trace := tr.newTrace()
		root := tr.start(trace, nil, "bench", "refresh")
		start := time.Now()
		var snap *db.Snapshot
		tr.timed(trace, root, "db", "OpenSnapshot", func() { snap, err = db.OpenSnapshot(b.snap) })
		if err != nil {
			return err
		}
		var attach time.Duration
		tr.timed(trace, root, "server", "Open+Server.Attach", func() {
			attach, err = rs.attach("tpch", snap.Instance(), aggcavsat.Options{})
		})
		if err != nil {
			snap.Close()
			return err
		}
		x := sample{st: Statement{Template: "probe", SQL: tpchProbe}}
		rs.query(ctx, "tpch", &x, tr, trace, root)
		root.end()
		ph.refreshMS = append(ph.refreshMS, ms(time.Since(start)))
		ph.attachMS = append(ph.attachMS, ms(attach))
		ph.samples = append(ph.samples, x)
		if prev != nil {
			prev.Close() // its tenant was replaced by this sample's
		}
		prev = snap
	}
	return nil
}

func (b *serveBench) versions() ([]version, error) {
	return []version{{in: b.in, mode: aggcavsat.PlannerAuto}}, nil
}

func (b *serveBench) layers(ctx context.Context, stmts []Statement, tr *tracer) (map[string]float64, error) {
	return probeLayers(ctx, layerInput{in: b.in, mode: aggcavsat.PlannerAuto, snap: b.snap}, stmts, tr)
}

func (b *serveBench) close() { b.served.close() }

// saveSnapshot writes the instance's columnar snapshot once per set-up.
func saveSnapshot(in *db.Instance, path string) error {
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return db.SaveSnapshot(in, path)
}
