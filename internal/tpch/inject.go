package tpch

import (
	"fmt"
	"strings"

	"aggcavsat/internal/db"
	"aggcavsat/internal/xrand"
)

// InjectOptions controls key-violation injection.
type InjectOptions struct {
	// Percent of facts that should participate in key violations
	// (0–100), computed over the final (injected) relation size — the
	// paper's "degree of inconsistency".
	Percent float64
	// Group sizes are drawn uniformly from [MinGroup, MaxGroup]
	// (the paper uses [2, 7] for the DBGen experiments).
	MinGroup, MaxGroup int
	Seed               uint64
	// Relations restricts injection; nil means every keyed relation.
	Relations []string
	// PerRelation overrides Percent for specific relations (lower-case
	// names); used by the PDBench profiles.
	PerRelation map[string]float64
}

// Inject returns a new instance containing every fact of in plus
// injected key-violating duplicates: each corrupted key-equal group has
// one original "victim" fact and size−1 duplicates that copy the
// victim's key attributes and take their non-key attributes from other
// existing tuples of the same relation (the paper's methodology).
// Every repair of the result restricted to a relation has exactly the
// original relation's size.
func Inject(in *db.Instance, opts InjectOptions) (*db.Instance, error) {
	if opts.MinGroup < 2 {
		opts.MinGroup = 2
	}
	if opts.MaxGroup < opts.MinGroup {
		opts.MaxGroup = opts.MinGroup
	}
	r := xrand.New(opts.Seed)

	// Copy every fact, preserving the input's fact IDs.
	out := in.Subset(func(db.FactID) bool { return true })

	want := map[string]float64{}
	if opts.Relations == nil {
		for _, rs := range in.Schema().Relations() {
			if rs.HasKey() {
				want[strings.ToLower(rs.Name)] = opts.Percent
			}
		}
	} else {
		for _, name := range opts.Relations {
			want[strings.ToLower(name)] = opts.Percent
		}
	}
	for rel, p := range opts.PerRelation {
		want[strings.ToLower(rel)] = p
	}

	for _, rs := range in.Schema().Relations() {
		rel := strings.ToLower(rs.Name)
		pct, ok := want[rel]
		if !ok || pct <= 0 {
			continue
		}
		if !rs.HasKey() || len(rs.Key) == rs.Arity() {
			continue // cannot duplicate keys distinctly
		}
		base := in.RelFacts(rel)
		if len(base) < 2 {
			continue
		}
		nonKey := nonKeyPositions(rs)

		victimUsed := make([]bool, len(base))
		violating := 0
		total := len(base)
		// Keep corrupting fresh victims until the target fraction holds.
		for float64(violating) < pct/100*float64(total) {
			// The smallest possible group adds two violating facts; if
			// even that overshoots the target (tiny relations at small
			// scale factors), stay consistent rather than way over.
			need := int(pct/100*float64(total)) - violating + 1
			if need < 2 {
				break
			}
			vi := r.Intn(len(base))
			tries := 0
			for victimUsed[vi] && tries < 4*len(base) {
				vi = r.Intn(len(base))
				tries++
			}
			if victimUsed[vi] {
				break // no fresh victims left
			}
			victimUsed[vi] = true
			victim := make(db.Tuple, rs.Arity())
			for p := range victim {
				victim[p] = in.ValueAt(base[vi], p)
			}
			size := r.Range(opts.MinGroup, opts.MaxGroup)
			// Cap the group so small relations do not overshoot their
			// target percentage (Table II's 7.69 % nation row is a
			// single corrupted pair).
			if size > need {
				size = need
			}
			added := 0
			seen := map[string]bool{victim.Key(nonKey): true}
			for added < size-1 {
				dup := victim.Clone()
				donor := base[r.Intn(len(base))]
				for _, p := range nonKey {
					dup[p] = in.ValueAt(donor, p)
				}
				k := dup.Key(nonKey)
				if seen[k] {
					// Identical to an existing group member: perturb one
					// non-key attribute deterministically.
					p := nonKey[r.Intn(len(nonKey))]
					dup[p] = perturb(r, dup[p], added)
					k = dup.Key(nonKey)
					if seen[k] {
						continue
					}
				}
				seen[k] = true
				if _, err := out.Insert(rel, dup); err != nil {
					return nil, fmt.Errorf("tpch: inject into %s: %w", rs.Name, err)
				}
				added++
				total++
				violating++
			}
			if added > 0 {
				violating++ // the victim itself now violates
			}
		}
	}
	return out, nil
}

func nonKeyPositions(rs *db.RelationSchema) []int {
	isKey := make([]bool, rs.Arity())
	for _, k := range rs.Key {
		isKey[k] = true
	}
	var out []int
	for i := range rs.Attrs {
		if !isKey[i] {
			out = append(out, i)
		}
	}
	return out
}

// perturb derives a distinct value of the same kind.
func perturb(r *xrand.Rand, v db.Value, salt int) db.Value {
	switch v.Kind() {
	case db.KindInt:
		return db.Int(v.AsInt() + int64(1+r.Intn(97)) + int64(salt))
	case db.KindFloat:
		return db.Float(v.AsFloat() + 0.5 + float64(salt))
	case db.KindString:
		return db.Str(v.AsString() + fmt.Sprintf("~%d", salt+r.Intn(97)))
	default:
		return db.Int(int64(salt + 1))
	}
}
