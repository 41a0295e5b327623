package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"aggcavsat"
	"aggcavsat/internal/constraints"
	"aggcavsat/internal/core"
	"aggcavsat/internal/db"
	"aggcavsat/internal/schemafile"
)

// Tenant is one attached instance: a named, versioned, frozen database
// with its prepared System. Tenants are immutable once attached;
// re-attaching a name swaps in a new Tenant under a fresh version, so
// cached answers for the old version can never be served again.
type Tenant struct {
	Name string
	// Dir is the source directory ("" for in-memory tenants).
	Dir string
	// Version is assigned by the registry at attach time, monotonically
	// increasing across the whole registry; with the query fingerprint
	// it is the result-cache key.
	Version uint64
	// ConstraintFP fingerprints the repair semantics: the constraint
	// mode plus the schema keys or the denial-constraint set.
	ConstraintFP string
	// Mode is "keys" or "dc".
	Mode string
	// Planner is the routing policy of the tenant's engine ("auto",
	// "force-sat", "force-rewrite").
	Planner string
	// DataVersion is the content fingerprint of the tenant's backing
	// columnar snapshot (0 for CSV-loaded and in-memory tenants).
	DataVersion uint64
	Facts       int
	Relations   int
	AttachedAt  time.Time

	sys *aggcavsat.System
	in  *db.Instance
}

// System returns the tenant's prepared query system.
func (t *Tenant) System() *aggcavsat.System { return t.sys }

// TenantInfo is the /admin/instances JSON shape for one tenant.
type TenantInfo struct {
	Name         string    `json:"name"`
	Dir          string    `json:"dir,omitempty"`
	Version      uint64    `json:"version"`
	DataVersion  string    `json:"data_version,omitempty"`
	Mode         string    `json:"mode"`
	Planner      string    `json:"planner"`
	ConstraintFP string    `json:"constraint_fp"`
	Facts        int       `json:"facts"`
	Relations    int       `json:"relations"`
	AttachedAt   time.Time `json:"attached_at"`
}

// tenants is the registry: named instances, hot-attachable while the
// server runs.
type tenants struct {
	mu      sync.RWMutex
	byName  map[string]*Tenant
	version uint64
}

func newTenants() *tenants {
	return &tenants{byName: map[string]*Tenant{}}
}

// attach registers (or replaces) a tenant under the next version and
// returns it with the tenant it replaced (nil if the name is new).
func (ts *tenants) attach(name, dir string, sys *aggcavsat.System, in *db.Instance, dcs []constraints.DC) (t, old *Tenant) {
	mode := "keys"
	if len(dcs) > 0 {
		mode = "dc"
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.version++
	t = &Tenant{
		Name:         name,
		Dir:          dir,
		Version:      ts.version,
		ConstraintFP: constraintFingerprint(in.Schema(), dcs),
		Mode:         mode,
		Planner:      sys.PlannerMode().String(),
		DataVersion:  in.DataVersion(),
		Facts:        in.NumFacts(),
		Relations:    len(in.Schema().Relations()),
		AttachedAt:   time.Now(),
		sys:          sys,
		in:           in,
	}
	old = ts.byName[name]
	ts.byName[name] = t
	return t, old
}

// get resolves a tenant by name; an empty name resolves when exactly
// one tenant is attached.
func (ts *tenants) get(name string) (*Tenant, error) {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	if name == "" {
		if len(ts.byName) == 1 {
			for _, t := range ts.byName {
				return t, nil
			}
		}
		return nil, fmt.Errorf("no instance named and %d attached; pass \"instance\"", len(ts.byName))
	}
	t, ok := ts.byName[name]
	if !ok {
		return nil, fmt.Errorf("unknown instance %q", name)
	}
	return t, nil
}

// list snapshots every tenant, sorted by name.
func (ts *tenants) list() []TenantInfo {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	out := make([]TenantInfo, 0, len(ts.byName))
	for _, t := range ts.byName {
		info := TenantInfo{
			Name:         t.Name,
			Dir:          t.Dir,
			Version:      t.Version,
			Mode:         t.Mode,
			Planner:      t.Planner,
			ConstraintFP: t.ConstraintFP,
			Facts:        t.Facts,
			Relations:    t.Relations,
			AttachedAt:   t.AttachedAt,
		}
		if t.DataVersion != 0 {
			info.DataVersion = fmt.Sprintf("%016x", t.DataVersion)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// count returns the number of attached tenants.
func (ts *tenants) count() int {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return len(ts.byName)
}

// constraintFingerprint hashes the repair semantics: schema keys in
// keys mode, the sorted DC renderings in DC mode, as /admin/instances
// reports it.
func constraintFingerprint(schema *db.Schema, dcs []constraints.DC) string {
	var b strings.Builder
	if len(dcs) == 0 {
		b.WriteString("keys\n")
		for _, rs := range schema.Relations() {
			fmt.Fprintf(&b, "%s(%s)\n", rs.Name, strings.Join(rs.KeyNames(), ","))
		}
	} else {
		b.WriteString("dc\n")
		rendered := make([]string, len(dcs))
		for i, dc := range dcs {
			rendered[i] = dc.String()
		}
		sort.Strings(rendered)
		for _, s := range rendered {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	return core.Fingerprint64(b.String())
}

// LoadTenantDir is the one loader of a data directory: it reads
// schema.txt, loads the facts, and prepares a System over them with the
// given base options (the schema's FDs switch it to DC mode). When the
// directory holds a columnar snapshot it is mmap'ed zero-copy instead
// of parsing CSV, and the returned Snapshot is non-nil. A one-shot
// caller closes it after use; tenants keep it mapped for their lifetime
// (tenants are never detached, only superseded, and replaced tenants
// may still be serving in-flight queries, so the mapping is
// intentionally left in place until process exit).
func LoadTenantDir(dir string, opts aggcavsat.Options) (*aggcavsat.System, *db.Instance, []constraints.DC, *db.Snapshot, error) {
	f, err := os.Open(filepath.Join(dir, "schema.txt"))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	parsed, err := schemafile.Read(f)
	f.Close()
	if err != nil {
		return nil, nil, nil, nil, err
	}
	in, snap, err := db.OpenDir(parsed.Schema, dir)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	opts.DenialConstraints = parsed.FDs
	sys, err := aggcavsat.Open(in, opts)
	if err != nil {
		if snap != nil {
			snap.Close()
		}
		return nil, nil, nil, nil, err
	}
	return sys, in, parsed.FDs, snap, nil
}
