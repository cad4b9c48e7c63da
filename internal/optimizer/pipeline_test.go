package optimizer_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"prestocs/internal/bloom"
	"prestocs/internal/column"
	"prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/expr"
	"prestocs/internal/plan"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// checkPlan asserts what every optimized plan must satisfy whatever the
// query and the pushdown mode: each TableScan sits under exactly one
// Exchange of its own stage — a Join's build input is a stage of its own,
// under its own Exchange, while its probe runs in the stage the Join is
// in —, every Join's keys address columns of its inputs' schemas that
// pair up in kind, the result schema is the analyzed plan's, taking a
// spine apart and stacking it again gives the same tree, and the final
// stage — the root spine down to its first Exchange — is the one the
// global optimizer planned, the same in every pushdown mode as in none:
// the connector absorbs leaf-stage operators only.
func checkPlan(analyzed, optimized, none plan.Node) error {
	var walk func(n plan.Node, exchanges int) error
	walk = func(n plan.Node, exchanges int) error {
		switch t := n.(type) {
		case *plan.Exchange:
			exchanges++
		case *plan.TableScan:
			if exchanges != 1 {
				return fmt.Errorf("%s sits under %d exchanges", n.Describe(), exchanges)
			}
		case *plan.Join:
			probe, build := t.Probe.OutputSchema(), t.Build.OutputSchema()
			if len(t.ProbeKeys) != len(t.BuildKeys) || len(t.ProbeKeys) == 0 {
				return fmt.Errorf("%s pairs %d probe keys with %d build keys", n.Describe(), len(t.ProbeKeys), len(t.BuildKeys))
			}
			for i, pk := range t.ProbeKeys {
				bk := t.BuildKeys[i]
				if pk < 0 || pk >= probe.Len() || bk < 0 || bk >= build.Len() {
					return fmt.Errorf("%s: key pair %d out of range of %s / %s", n.Describe(), i, probe, build)
				}
				if pt, bt := probe.Columns[pk].Type, build.Columns[bk].Type; pt != bt {
					return fmt.Errorf("%s: key pair %d joins %s with %s", n.Describe(), i, pt, bt)
				}
			}
		}
		spine, end := plan.Spine(n)
		again, err := plan.Stack(spine, end)
		if err != nil {
			return err
		}
		if plan.Format(again) != plan.Format(n) {
			return fmt.Errorf("Stack(Spine(n)) differs from n:\n%s\nvs\n%s", plan.Format(again), plan.Format(n))
		}
		for i, c := range n.Children() {
			if _, ok := n.(*plan.Join); ok && i == 1 {
				exchanges = 0 // the build side starts its own stage
			}
			if err := walk(c, exchanges); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(optimized, 0); err != nil {
		return err
	}
	if got, want := optimized.OutputSchema(), analyzed.OutputSchema(); !got.Equal(want) {
		return fmt.Errorf("result schema %s, analyzed %s", got, want)
	}
	if got, want := finalStage(optimized), finalStage(none); got != want {
		return fmt.Errorf("final stage %s, mode none plans %s", got, want)
	}
	return nil
}

// finalStage describes the root spine down to and including its first
// Exchange.
func finalStage(root plan.Node) string {
	spine, _ := plan.Spine(root)
	var parts []string
	for _, n := range spine {
		parts = append(parts, n.Describe())
		if _, ok := n.(*plan.Exchange); ok {
			break
		}
	}
	return strings.Join(parts, " → ")
}

// hiveJoins are the join shapes over the hive catalog (the golden table
// holds Q3 over it).
var hiveJoins = []string{
	fmt.Sprintf(joinProbeConjunct, "hive"),
	fmt.Sprintf(joinBuildConjunct, "hive"),
	fmt.Sprintf(joinBothConjuncts, "hive"),
}

// analyzerShapes seed FuzzPlanPipeline with what the analyzer's single
// resolve pass must still reject (nested aggregates, aggregates outside
// the select list, ungrouped columns under an aggregate) and must still
// share (avg beside its sum and count, one aggregate used twice).
var analyzerShapes = []string{
	`SELECT sum(max(x)) AS s FROM laghos`,
	`SELECT vertex_id FROM laghos WHERE sum(e) > 1`,
	`SELECT count(*) AS n FROM laghos GROUP BY sum(e)`,
	`SELECT l.orderkey AS k FROM ocs.lineitem AS l JOIN ocs.orders AS o ON l.orderkey = max(o.orderkey)`,
	`SELECT x + sum(e) AS s FROM laghos`,
	`SELECT vertex_id, avg(e) AS a, sum(e) AS s, count(e) AS c FROM laghos GROUP BY vertex_id`,
	`SELECT sum(e) / sum(e) + max(x * 2) - max(x * 2) AS r FROM laghos WHERE x < 2.0`,
}

// disjointShapes seed FuzzPlanPipeline with GROUP BYs on a split-disjoint
// key (laghos's vertex_id), one under ORDER BY … LIMIT and one without:
// the aggregate completes below the Exchange in every mode.
var disjointShapes = []string{
	`SELECT vertex_id, sum(e) AS s, count(*) AS n FROM laghos WHERE x > 1.0 GROUP BY vertex_id ORDER BY s DESC LIMIT 7`,
	`SELECT vertex_id, max(e) - min(e) AS r FROM laghos GROUP BY vertex_id`,
}

func TestOptimizedPlanInvariants(t *testing.T) {
	f := newPlanFixture(t)
	sqls := slices.Concat(hiveJoins, disjointShapes)
	for _, q := range planQueries {
		sqls = append(sqls, q.sql)
	}
	for _, sql := range sqls {
		var none plan.Node
		for _, mode := range planModes { // none first
			analyzed, optimized, err := f.planFor(sql, mode)
			if err != nil {
				t.Fatalf("%s [%s]: %v", sql, mode, err)
			}
			if none == nil {
				none = optimized
			}
			if err := checkPlan(analyzed, optimized, none); err != nil {
				t.Errorf("%s [%s]: %v\n%s", sql, mode, err, plan.Format(optimized))
			}
		}
	}
}

// FuzzPlanPipeline drives arbitrary SQL through parse, analyze, the global
// optimizer and the connector optimizer in every pushdown mode. Any step
// may reject its input; none may panic, and a plan that comes out
// satisfies checkPlan.
func FuzzPlanPipeline(f *testing.F) {
	fx := newPlanFixture(f)
	for _, q := range planQueries {
		f.Add(q.sql)
	}
	for _, sql := range slices.Concat(hiveJoins, analyzerShapes, disjointShapes) {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		var none plan.Node
		for _, mode := range planModes { // none first
			analyzed, optimized, err := fx.planFor(sql, mode)
			if analyzed != nil {
				for _, scan := range plan.FindScans(analyzed) {
					if h, ok := scan.Handle.(engine.SnapshotHandle); ok {
						h.ReleaseSnapshot()
					}
				}
			}
			if err != nil {
				return
			}
			if none == nil {
				none = optimized
			}
			if err := checkPlan(analyzed, optimized, none); err != nil {
				t.Fatalf("%q [%s]: %v", sql, mode, err)
			}
		}
	})
}

// FuzzSubstraitUnmarshal feeds the plan decoder — which on a storage node
// reads bytes from any client — the wire form of every pushdown the golden
// table produces, each join's probe scan once more with a build-side bloom
// filter attached — each over one object and over a list of several, as a
// leaf worker's grouped request carries —, three plans it must refuse (a
// bloom filter over bloom.MaxBytes, a direct filter over a DOUBLE column, a
// column read as the wrong kind), direct filters whose lo lies near either
// end of int64, and what the fuzzer makes of them. The decoder may reject
// its input; it must not panic, it allocates within unmarshalAllocBound of
// its input whatever the verdict, and a plan it accepts is backed by its
// input (re-encoding it takes no more than a small multiple of the bytes it
// came from — nothing was sized from a length field), re-encodes to a
// fixed point, and its bloom filter tests BIGINT and DATE keys at and
// around the ends of int64 and its own lo without a panic.
func FuzzSubstraitUnmarshal(f *testing.F) {
	fx := newPlanFixture(f)
	seed := func(h *ocs.Handle) {
		for _, objects := range [][]string{h.Table.Objects[:1], append(slices.Clone(h.Table.Objects), "part-next")} {
			ir, err := ocs.BuildSubstrait(h, objects...)
			if err != nil {
				f.Fatal(err)
			}
			wire, err := substrait.Marshal(ir)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(wire)
			f.Add(wire[:len(wire)/2])
		}
	}
	keys := column.NewVector(types.Int64)
	for k := int64(0); k < 64; k++ {
		keys.Append(types.IntValue(k * 3))
	}
	filter := bloom.New(keys.Len(), bloom.DefaultBitsPerKey)
	if err := filter.AddVector(keys); err != nil {
		f.Fatal(err)
	}
	for _, q := range planQueries {
		for _, mode := range planModes {
			_, root, err := fx.planFor(q.sql, mode)
			if err != nil {
				f.Fatal(err)
			}
			for _, scan := range plan.FindScans(root) {
				if h, ok := scan.Handle.(*ocs.Handle); ok && h.Push != nil {
					seed(h)
				}
			}
			if join := plan.FindJoin(root); join != nil {
				if bh, ok := plan.FindScan(join.Probe).Handle.(plan.BloomJoinHandle); ok {
					if h, ok := bh.WithJoinBloom(join.ProbeKeys[0], filter, int64(keys.Len())); ok {
						seed(h.(*ocs.Handle))
					}
				}
			}
		}
	}
	// Direct filters (k = 0) from near either end of int64, one word each
	// with every bit set: offsets are taken in uint64, so the one from near
	// MaxInt64 covers MinInt64's first values too, which a storage node may
	// pass but must not index past its bits for.
	ints := &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: types.NewSchema(types.Column{Name: "k", Type: types.Int64})}
	for _, lo := range []int64{math.MaxInt64 - 10, math.MinInt64, math.MinInt64 + 1} {
		wire, err := substrait.Marshal(substrait.NewPlan(&substrait.BloomFilterRel{Input: ints, NumHash: 0, Bits: bytes.Repeat([]byte{0xff}, 8), Lo: lo}))
		if err != nil {
			f.Fatal(err)
		}
		if _, err := substrait.Unmarshal(wire); err != nil {
			f.Fatalf("the decoder refuses a direct filter from %d: %v", lo, err)
		}
		f.Add(wire)
	}
	// Three plans the decoder must refuse, whose bytes are otherwise well
	// formed: a bloom filter one word over the cap, a direct filter over a
	// DOUBLE column, and a filter that reads a DOUBLE column as VARCHAR.
	read := &substrait.ReadRel{Bucket: "b", Objects: []string{"o"}, BaseSchema: types.NewSchema(types.Column{Name: "x", Type: types.Float64})}
	misTyped, err := expr.NewCompare(expr.Eq, expr.Col(0, "x", types.String), expr.Lit(types.StringValue("a")))
	if err != nil {
		f.Fatal(err)
	}
	for _, rel := range []substrait.Rel{
		&substrait.BloomFilterRel{Input: read, Column: 0, NumHash: 3, Bits: make([]byte, bloom.MaxBytes+8)},
		&substrait.BloomFilterRel{Input: read, Column: 0, NumHash: 0, Bits: make([]byte, 8)},
		&substrait.FilterRel{Input: read, Condition: misTyped},
	} {
		wire, err := substrait.Marshal(substrait.NewPlan(rel))
		if err != nil {
			f.Fatal(err)
		}
		if _, err := substrait.Unmarshal(wire); err == nil {
			f.Fatalf("the decoder accepts %s", substrait.NewPlan(rel))
		}
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		p, err := substrait.Unmarshal(in)
		if got, bound := leastAlloc(func() { _, _ = substrait.Unmarshal(in) }), unmarshalAllocBound(len(in)); got > bound {
			t.Fatalf("%d input bytes allocated %d bytes to decode, bound %d (err %v)", len(in), got, bound, err)
		}
		if err != nil {
			return
		}
		again, err := substrait.Marshal(p)
		if err != nil {
			t.Fatalf("accepted plan %s does not re-encode: %v", p, err)
		}
		if len(again) > 16*len(in)+64 {
			t.Fatalf("%d input bytes decoded to a plan of %d bytes", len(in), len(again))
		}
		q, err := substrait.Unmarshal(again)
		if err != nil {
			t.Fatalf("re-encoded plan %s rejected: %v", p, err)
		}
		if third, err := substrait.Marshal(q); err != nil || !bytes.Equal(third, again) {
			t.Fatalf("re-encoding %s is not a fixed point (%v)", p, err)
		}
		substrait.WalkRels(p.Root, func(r substrait.Rel) {
			if b, ok := r.(*substrait.BloomFilterRel); ok {
				testExtremeKeys(t, b)
			}
		})
	})
}

// testExtremeKeys runs an accepted bloom filter over BIGINT or DATE keys
// at and around the ends of int64 and its own lo, as a storage node would:
// it may keep any of them, but must not fail or panic.
func testExtremeKeys(t *testing.T, b *substrait.BloomFilterRel) {
	in, err := b.Input.OutputSchema()
	if err != nil {
		t.Fatal(err)
	}
	kind := in.Columns[b.Column].Type
	if kind != types.Int64 && kind != types.Date {
		return
	}
	f, err := bloom.FromBits(b.Bits, b.NumHash, b.Lo)
	if err != nil {
		t.Fatalf("an accepted plan's bloom filter is refused: %v", err)
	}
	keys := column.NewVector(kind)
	for _, v := range []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, b.Lo - 1, b.Lo, b.Lo + 1, b.Lo + int64(len(b.Bits))*8, math.MaxInt64 - 1, math.MaxInt64} {
		keys.Append(types.Value{Kind: kind, I: v})
	}
	if _, err := f.TestVector(keys, nil, nil); err != nil {
		t.Fatalf("an accepted plan's bloom filter cannot test %s keys: %v", kind, err)
	}
}

// unmarshalAllocBound is the most heap decoding and validating an n-byte
// plan may allocate: nothing is sized from a length field, so what a plan
// takes grows with its bytes. The costliest bytes measured are a ReadRel's
// empty schema-column messages, 73 heap bytes a byte (each two-byte
// message costs a nested decoder and a column slot, with the slice's
// doubling); the seeds and the fuzzer's inputs stay under 12. 96 a byte
// covers them, and 16 KiB the decoder's fixed cost and one error.
func unmarshalAllocBound(n int) uint64 { return uint64(96*n + 16<<10) }

// leastAlloc is the fewest heap bytes f allocated over three runs (the
// fewest, so another goroutine's allocation does not count).
func leastAlloc(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
