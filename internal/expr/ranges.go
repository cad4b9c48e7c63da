package expr

// Predicate range analysis: derive per-column value intervals from a
// pushed-down filter AST, so scan layers can skip whole objects and row
// groups whose footer statistics prove the filter false before touching
// any page data (zone-map / min-max skipping).
//
// The analysis answers one question per referenced column: "in any row
// that satisfies the predicate (SQL WHERE semantics — a NULL result
// rejects the row), what values can this column hold?" The answer is a
// ColRange: an interval with open/closed bounds plus null admissibility.
// AND intersects ranges, OR unions them (dropping columns only one side
// constrains), NOT is rewritten through operator negation, and anything
// the analysis does not understand contributes no constraint — the
// result is always a superset of the satisfying rows, so pruning with it
// is sound but never required.
//
// Three-valued logic makes comparisons stronger than they look: `x < 5`
// is NULL (hence rejecting) for NULL x, so every comparison, BETWEEN and
// NOT-of-comparison also proves the column non-NULL. That is what lets
// an all-NULL chunk be skipped by any ordinary predicate over it, and
// what `IS NULL` / `IS NOT NULL` encode directly.
//
// Interval endpoints are ordered with types.Compare, whose float order
// is total (NaN after every number, equal to itself) — exactly the order
// the vectorized comparison kernels use (types.CompareFloat), so a
// range-pruned chunk can never contain a row the kernels would keep.

import (
	"fmt"
	"strings"

	"prestocs/internal/types"
)

// ColRange describes the values one column may take in a row satisfying
// a predicate. The zero ColRange admits nothing.
type ColRange struct {
	// Lo and Hi bound the non-NULL values; a Null or zero Value means
	// unbounded on that side. Bounds are inclusive unless the matching
	// Open flag is set.
	Lo, Hi         types.Value
	LoOpen, HiOpen bool
	// NullOK reports that a satisfying row may hold SQL NULL in this
	// column (only IS NULL admits it).
	NullOK bool
	// NonNullOK reports that a satisfying row may hold a non-NULL value
	// (inside [Lo, Hi]).
	NonNullOK bool
}

// Empty reports that no value at all satisfies the range.
func (cr ColRange) Empty() bool { return !cr.NullOK && !cr.NonNullOK }

// noBound reports that v carries no bound: either SQL NULL (unknown
// statistics) or the zero Value (unbounded side of a range).
func noBound(v types.Value) bool { return v.Null || !v.Kind.Valid() }

// String renders the range for debugging: "[1, 10) null=false".
func (cr ColRange) String() string {
	var b strings.Builder
	switch {
	case cr.Empty():
		return "∅"
	case !cr.NonNullOK:
		return "NULL-only"
	}
	if cr.LoOpen {
		b.WriteByte('(')
	} else {
		b.WriteByte('[')
	}
	if noBound(cr.Lo) {
		b.WriteString("-inf")
	} else {
		b.WriteString(cr.Lo.String())
	}
	b.WriteString(", ")
	if noBound(cr.Hi) {
		b.WriteString("+inf")
	} else {
		b.WriteString(cr.Hi.String())
	}
	if cr.HiOpen {
		b.WriteByte(')')
	} else {
		b.WriteByte(']')
	}
	fmt.Fprintf(&b, " null=%v", cr.NullOK)
	return b.String()
}

// Ranges is the per-column outcome of analyzing one predicate.
type Ranges struct {
	// Cols maps input ordinal to the derived range. Columns absent from
	// the map are unconstrained.
	Cols map[int]ColRange
	// Never is set when the predicate is provably false (or NULL) for
	// every row, independent of any column value.
	Never bool
}

// Constrained reports whether the analysis produced anything a pruner
// can act on.
func (r Ranges) Constrained() bool { return r.Never || len(r.Cols) > 0 }

// AnalyzeRanges derives per-column ranges from a boolean predicate. A
// nil predicate constrains nothing.
func AnalyzeRanges(pred Expr) Ranges {
	if pred == nil {
		return Ranges{}
	}
	cols, never := analyzeRanges(pred)
	if never {
		return Ranges{Never: true}
	}
	return Ranges{Cols: cols}
}

// comparableKinds reports whether types.Compare accepts the pair.
func comparableKinds(a, b types.Kind) bool {
	return a == b || (a.Numeric() && b.Numeric())
}

// analyzeRanges returns the constraint map, or never=true when the
// predicate is unsatisfiable. An empty map with never=false means "no
// information".
func analyzeRanges(e Expr) (map[int]ColRange, bool) {
	switch t := e.(type) {
	case *Literal:
		// WHERE FALSE and WHERE NULL reject every row.
		if t.Value.Kind == types.Bool && (t.Value.Null || !t.Value.B) {
			return nil, true
		}
		return nil, false
	case *ColumnRef:
		// A bare boolean column as predicate keeps rows where it is
		// non-NULL true.
		if t.Kind == types.Bool {
			v := types.BoolValue(true)
			return map[int]ColRange{t.Index: {Lo: v, Hi: v, NonNullOK: true}}, false
		}
		return nil, false
	case *Compare:
		return analyzeCompare(t)
	case *Between:
		return analyzeBetween(t)
	case *IsNull:
		col, ok := t.E.(*ColumnRef)
		if !ok {
			return nil, false
		}
		if t.Negate {
			return map[int]ColRange{col.Index: {NonNullOK: true}}, false
		}
		return map[int]ColRange{col.Index: {NullOK: true}}, false
	case *Logic:
		if t.Op == And {
			return analyzeAnd(t.L, t.R)
		}
		return analyzeOr(t.L, t.R)
	case *Not:
		return analyzeNot(t.E)
	default:
		return nil, false
	}
}

// analyzeCompare handles col OP lit (either operand order).
func analyzeCompare(t *Compare) (map[int]ColRange, bool) {
	col, op, lit, ok := t.ColumnLiteral()
	if !ok {
		return nil, false
	}
	if lit.Null {
		// col OP NULL is NULL for every row: nothing satisfies.
		return nil, true
	}
	if !comparableKinds(col.Kind, lit.Kind) {
		return nil, false
	}
	cr := ColRange{NonNullOK: true}
	switch op {
	case Eq:
		cr.Lo, cr.Hi = lit, lit
	case Ne:
		// No interval constraint, but NULLs still cannot satisfy.
	case Lt:
		cr.Hi, cr.HiOpen = lit, true
	case Le:
		cr.Hi = lit
	case Gt:
		cr.Lo, cr.LoOpen = lit, true
	case Ge:
		cr.Lo = lit
	}
	return map[int]ColRange{col.Index: cr}, false
}

func analyzeBetween(t *Between) (map[int]ColRange, bool) {
	col, okCol := t.E.(*ColumnRef)
	lo, okLo := t.Lo.(*Literal)
	hi, okHi := t.Hi.(*Literal)
	if !okCol || !okLo || !okHi {
		return nil, false
	}
	if lo.Value.Null || hi.Value.Null {
		// A NULL bound makes BETWEEN evaluate to NULL for every row.
		return nil, true
	}
	if !comparableKinds(col.Kind, lo.Value.Kind) || !comparableKinds(col.Kind, hi.Value.Kind) {
		return nil, false
	}
	if comparableKinds(lo.Value.Kind, hi.Value.Kind) && types.Compare(lo.Value, hi.Value) > 0 {
		return nil, true // empty interval: BETWEEN can never hold
	}
	return map[int]ColRange{col.Index: {Lo: lo.Value, Hi: hi.Value, NonNullOK: true}}, false
}

// analyzeNot rewrites NOT through its operand, respecting 3VL: rows kept
// by NOT(p) are exactly those where p is non-NULL false.
func analyzeNot(e Expr) (map[int]ColRange, bool) {
	switch t := e.(type) {
	case *Compare:
		return analyzeCompare(&Compare{Op: t.Op.Negate(), L: t.L, R: t.R})
	case *Between:
		// NOT BETWEEN keeps rows outside [lo, hi] — unbounded as an
		// interval, but still provably non-NULL (a NULL operand or bound
		// makes BETWEEN NULL, and NOT NULL is NULL).
		col, okCol := t.E.(*ColumnRef)
		lo, okLo := t.Lo.(*Literal)
		hi, okHi := t.Hi.(*Literal)
		if !okCol || !okLo || !okHi {
			return nil, false
		}
		if lo.Value.Null || hi.Value.Null {
			return nil, true
		}
		return map[int]ColRange{col.Index: {NonNullOK: true}}, false
	case *IsNull:
		if col, ok := t.E.(*ColumnRef); ok {
			if t.Negate {
				return map[int]ColRange{col.Index: {NullOK: true}}, false
			}
			return map[int]ColRange{col.Index: {NonNullOK: true}}, false
		}
		return nil, false
	case *Not:
		// NOT NOT p keeps exactly the rows where p is true.
		return analyzeRanges(t.E)
	case *Logic:
		// De Morgan holds under 3VL.
		inv := Or
		if t.Op == Or {
			inv = And
		}
		return analyzeRanges(&Logic{Op: inv, L: &Not{E: t.L}, R: &Not{E: t.R}})
	case *Literal:
		if t.Value.Kind == types.Bool && (t.Value.Null || t.Value.B) {
			return nil, true
		}
		return nil, false
	default:
		return nil, false
	}
}

func analyzeAnd(l, r Expr) (map[int]ColRange, bool) {
	lc, lNever := analyzeRanges(l)
	if lNever {
		return nil, true
	}
	rc, rNever := analyzeRanges(r)
	if rNever {
		return nil, true
	}
	if len(lc) == 0 {
		return rc, false
	}
	out := make(map[int]ColRange, len(lc)+len(rc))
	for c, cr := range lc {
		out[c] = cr
	}
	for c, cr := range rc {
		prev, ok := out[c]
		if !ok {
			out[c] = cr
			continue
		}
		merged := intersectRanges(prev, cr)
		if merged.Empty() {
			// Both sides must hold, but no value satisfies both.
			return nil, true
		}
		out[c] = merged
	}
	return out, false
}

func analyzeOr(l, r Expr) (map[int]ColRange, bool) {
	lc, lNever := analyzeRanges(l)
	rc, rNever := analyzeRanges(r)
	switch {
	case lNever && rNever:
		return nil, true
	case lNever:
		return rc, false
	case rNever:
		return lc, false
	}
	// Only columns both branches constrain survive: a row may satisfy
	// either side alone.
	out := make(map[int]ColRange)
	for c, lcr := range lc {
		if rcr, ok := rc[c]; ok {
			out[c] = unionRanges(lcr, rcr)
		}
	}
	return out, false
}

// intersectRanges narrows to values admitted by both ranges.
func intersectRanges(a, b ColRange) ColRange {
	out := ColRange{
		NullOK:    a.NullOK && b.NullOK,
		NonNullOK: a.NonNullOK && b.NonNullOK,
	}
	if !out.NonNullOK {
		return out
	}
	out.Lo, out.LoOpen = tighterBound(a.Lo, a.LoOpen, b.Lo, b.LoOpen, false)
	out.Hi, out.HiOpen = tighterBound(a.Hi, a.HiOpen, b.Hi, b.HiOpen, true)
	if !noBound(out.Lo) && !noBound(out.Hi) && comparableKinds(out.Lo.Kind, out.Hi.Kind) {
		c := types.Compare(out.Lo, out.Hi)
		if c > 0 || (c == 0 && (out.LoOpen || out.HiOpen)) {
			out.NonNullOK = false // interval collapsed
		}
	}
	return out
}

// tighterBound picks the narrower of two bounds (hi selects min for
// upper bounds, max for lower). A missing bound is unbounded.
func tighterBound(av types.Value, aOpen bool, bv types.Value, bOpen bool, hi bool) (types.Value, bool) {
	switch {
	case noBound(av):
		return bv, bOpen
	case noBound(bv):
		return av, aOpen
	case !comparableKinds(av.Kind, bv.Kind):
		return av, aOpen // mixed kinds: keep one side, stay conservative
	}
	c := types.Compare(av, bv)
	if c == 0 {
		return av, aOpen || bOpen
	}
	if (hi && c < 0) || (!hi && c > 0) {
		return av, aOpen
	}
	return bv, bOpen
}

// unionRanges widens to values admitted by either range (convex hull —
// gaps between disjoint intervals are kept, which is sound for pruning).
func unionRanges(a, b ColRange) ColRange {
	out := ColRange{
		NullOK:    a.NullOK || b.NullOK,
		NonNullOK: a.NonNullOK || b.NonNullOK,
	}
	switch {
	case !out.NonNullOK:
		return out
	case !a.NonNullOK:
		out.Lo, out.LoOpen, out.Hi, out.HiOpen = b.Lo, b.LoOpen, b.Hi, b.HiOpen
		return out
	case !b.NonNullOK:
		out.Lo, out.LoOpen, out.Hi, out.HiOpen = a.Lo, a.LoOpen, a.Hi, a.HiOpen
		return out
	}
	out.Lo, out.LoOpen = looserBound(a.Lo, a.LoOpen, b.Lo, b.LoOpen, false)
	out.Hi, out.HiOpen = looserBound(a.Hi, a.HiOpen, b.Hi, b.HiOpen, true)
	return out
}

// looserBound picks the wider of two bounds (hi selects max for upper
// bounds, min for lower). A missing bound is unbounded and always wins.
func looserBound(av types.Value, aOpen bool, bv types.Value, bOpen bool, hi bool) (types.Value, bool) {
	switch {
	case noBound(av) || noBound(bv):
		return types.Value{}, false
	case !comparableKinds(av.Kind, bv.Kind):
		return types.Value{}, false // unknown order: unbounded
	}
	c := types.Compare(av, bv)
	if c == 0 {
		return av, aOpen && bOpen
	}
	if (hi && c > 0) || (!hi && c < 0) {
		return av, aOpen
	}
	return bv, bOpen
}

// MayMatch reports whether a chunk of values with the given statistics
// can contain a row satisfying the range. min and max bound the chunk's
// non-NULL values (a Null Value means the bound is unknown — e.g. stats
// were not recorded — and never prunes); hasNull and hasNonNull describe
// the chunk's null profile. The test is conservative: any uncertainty
// keeps the chunk.
func (cr ColRange) MayMatch(min, max types.Value, hasNull, hasNonNull bool) bool {
	if cr.NullOK && hasNull {
		return true
	}
	if !cr.NonNullOK || !hasNonNull {
		return false
	}
	// Interval overlap against [min, max]; unknown stats keep the chunk.
	if !noBound(cr.Lo) && !noBound(max) && comparableKinds(max.Kind, cr.Lo.Kind) {
		c := types.Compare(max, cr.Lo)
		if c < 0 || (c == 0 && cr.LoOpen) {
			return false
		}
	}
	if !noBound(cr.Hi) && !noBound(min) && comparableKinds(min.Kind, cr.Hi.Kind) {
		c := types.Compare(min, cr.Hi)
		if c > 0 || (c == 0 && cr.HiOpen) {
			return false
		}
	}
	return true
}

// ZoneMap is the min/max/null profile of a run of values — a column
// chunk, a whole object, a table — and the one statistics type every
// pruning level tests: parquetlite footers store it per chunk and the
// metastore per object and per table. Min and max bound the non-NULL
// values (NULL when there are none); NumValues counts NULLs too.
type ZoneMap struct {
	Min       types.Value `json:"min"`
	Max       types.Value `json:"max"`
	NullCount int64       `json:"null_count"`
	// NumValues is zero when the count was not recorded, so a zone map
	// with rows behind it and no values is unknown, not empty.
	NumValues int64 `json:"num_values,omitempty"`
}

// Merge widens z to cover o as well: counts add, and the bounds become
// the least min and greatest max under types.Compare (the first seen
// wins a tie).
func (z *ZoneMap) Merge(o ZoneMap) {
	z.NullCount += o.NullCount
	z.NumValues += o.NumValues
	if !o.Min.Null && (z.Min.Null || types.Compare(o.Min, z.Min) < 0) {
		z.Min = o.Min
	}
	if !o.Max.Null && (z.Max.Null || types.Compare(o.Max, z.Max) > 0) {
		z.Max = o.Max
	}
}

// MayMatch tests zone maps against the ranges: false only when some
// constrained column's zone map proves no row can satisfy the predicate.
// zone looks a column's zone map up by input ordinal and reports
// ok=false when the caller knows nothing about that column, which keeps
// it.
func (r Ranges) MayMatch(zone func(col int) (ZoneMap, bool)) bool {
	if r.Never {
		return false
	}
	for col, cr := range r.Cols {
		z, ok := zone(col)
		if ok && !cr.MayMatch(z.Min, z.Max, z.NullCount > 0, z.NumValues > z.NullCount) {
			return false
		}
	}
	return true
}
