package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"aggcavsat"
	"aggcavsat/internal/constraints"
	"aggcavsat/internal/db"
	"aggcavsat/internal/medigap"
	"aggcavsat/internal/xrand"
)

// Medigap data versions of dc_refresh: generated at scale 1.0 from
// fixed seeds, saved as snapshots during set-up and cycled.
const (
	medigapScale    = 0.5
	medigapVersions = 3
	medigapSeedBase = 100
)

// medigapProbe is the statement a data refresh waits for. Under denial
// constraints every statement needs the new version's minimal
// violations first, so the probe's answer marks the end of the
// staleness window.
const medigapProbe = "SELECT COUNT(*) FROM SPT"

// dcRefreshBlock is the latency block of dc_refresh: the twelve
// statements of two epochs.
const dcRefreshBlock = 2 * 12

// dcRefreshBench is the dc_refresh workload: a denial-constraint tenant
// re-attached to a freshly opened data version before each epoch of the
// twelve Medigap statements.
type dcRefreshBench struct {
	*served
	seed  uint64
	dcs   []constraints.DC
	snaps []string
	// refs holds one heap instance per data version for the answer
	// check, generated when the check first needs it.
	refs []*db.Instance
	open []*db.Snapshot
}

func setupDCRefresh(ctx context.Context, dir string, seed uint64) (bench, error) {
	dcs, err := medigap.Constraints(medigap.Schema())
	if err != nil {
		return nil, err
	}
	b := &dcRefreshBench{seed: seed, dcs: dcs}
	for v := 0; v < medigapVersions; v++ {
		in, err := medigap.Generate(medigapScale, medigapSeedBase+uint64(v))
		if err != nil {
			return nil, err
		}
		path := filepath.Join(dir, fmt.Sprintf("medigap-v%d.snapshot", v))
		if err := saveSnapshot(in, path); err != nil {
			return nil, err
		}
		b.snaps = append(b.snaps, path)
	}
	if b.served, err = startServer(); err != nil {
		return nil, err
	}
	// The tenant starts on version 0; one probe opens the connections.
	x := sample{st: Statement{SQL: medigapProbe}}
	if _, err := b.attachVersion(ctx, 0, &x, nil, 0, nil); err != nil {
		b.close()
		return nil, err
	}
	if x.out != outcomeOK {
		b.close()
		return nil, fmt.Errorf("dc_refresh warm-up probe failed")
	}
	return b, nil
}

// attachVersion opens data version v anew, re-attaches the tenant to it
// and waits for the probe's answer, returning the Attach duration.
func (b *dcRefreshBench) attachVersion(ctx context.Context, v int, probe *sample, tr *tracer, trace uint64, root *openSpan) (time.Duration, error) {
	var snap *db.Snapshot
	var err error
	tr.timed(trace, root, "db", "OpenSnapshot", func() { snap, err = db.OpenSnapshot(b.snaps[v]) })
	if err != nil {
		return 0, err
	}
	var attach time.Duration
	tr.timed(trace, root, "server", "Open+Server.Attach", func() {
		attach, err = b.attach("medigap", snap.Instance(), aggcavsat.Options{DenialConstraints: b.dcs})
	})
	if err != nil {
		snap.Close()
		return 0, err
	}
	// Every earlier version is unreachable once the tenant is replaced
	// and its epoch has drained.
	for _, s := range b.open {
		s.Close()
	}
	b.open = []*db.Snapshot{snap}
	probe.version = v
	b.query(ctx, "medigap", probe, tr, trace, root)
	return attach, nil
}

// measure runs epochs until the time is up: re-attach the next data
// version, wait for the probe, then issue the twelve statements in a
// seeded order over nproc connections.
func (b *dcRefreshBench) measure(ctx context.Context, ph *phase, seconds float64, tr *tracer) error {
	r := xrand.New(b.seed)
	limit := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for e := 1; time.Since(start) < limit; e++ {
		v := e % medigapVersions
		trace := tr.newTrace()
		root := tr.start(trace, nil, "bench", "refresh")
		t0 := time.Now()
		probe := sample{st: Statement{Template: "probe", SQL: medigapProbe}}
		attach, err := b.attachVersion(ctx, v, &probe, tr, trace, root)
		root.end()
		if err != nil {
			return err
		}
		ph.refreshMS = append(ph.refreshMS, ms(time.Since(t0)))
		ph.attachMS = append(ph.attachMS, ms(attach))
		ph.samples = append(ph.samples, probe)

		epoch := MedigapOrder(r)
		out := make([]sample, len(epoch))
		var wg sync.WaitGroup
		next := make(chan int, len(epoch))
		for i := range epoch {
			next <- i
		}
		close(next)
		for w := 0; w < nproc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					x := &out[i]
					str := tr.every(i)
					x.st, x.version, x.timed, x.traced = epoch[i], v, true, str != nil
					trace := str.newTrace()
					root := str.start(trace, nil, "bench", "statement "+x.st.Template)
					t := time.Now()
					b.query(ctx, "medigap", x, str, trace, root)
					x.latency = time.Since(t)
					root.end()
				}
			}()
		}
		wg.Wait()
		ph.samples = append(ph.samples, out...)
	}
	ph.wall = time.Since(start)
	return nil
}

// refresh is a no-op: every epoch of the measured window is a refresh.
func (b *dcRefreshBench) refresh(context.Context, *phase, int, *tracer) error { return nil }

// versions regenerates each data version as a heap instance, so the
// answer check runs on data loaded independently of the served
// snapshots.
func (b *dcRefreshBench) versions() ([]version, error) {
	if b.refs == nil {
		for v := range b.snaps {
			in, err := medigap.Generate(medigapScale, medigapSeedBase+uint64(v))
			if err != nil {
				return nil, err
			}
			b.refs = append(b.refs, in)
		}
	}
	out := make([]version, len(b.refs))
	for i, in := range b.refs {
		out[i] = version{in: in, dcs: b.dcs, mode: aggcavsat.PlannerAuto}
	}
	return out, nil
}

func (b *dcRefreshBench) layers(ctx context.Context, stmts []Statement, tr *tracer) (map[string]float64, error) {
	vs, err := b.versions()
	if err != nil {
		return nil, err
	}
	return probeLayers(ctx, layerInput{in: vs[0].in, dcs: b.dcs, mode: aggcavsat.PlannerAuto, snap: b.snaps[0]}, stmts, tr)
}

func (b *dcRefreshBench) close() {
	if b.served != nil {
		b.served.close()
	}
	for _, s := range b.open {
		s.Close()
	}
	b.open = nil
}
