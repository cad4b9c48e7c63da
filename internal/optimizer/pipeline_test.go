package optimizer_test

import (
	"bytes"
	"fmt"
	"testing"

	"prestocs/internal/bloom"
	"prestocs/internal/column"
	"prestocs/internal/connector/ocs"
	"prestocs/internal/engine"
	"prestocs/internal/plan"
	"prestocs/internal/substrait"
	"prestocs/internal/types"
)

// checkPlan asserts what every optimized plan must satisfy whatever the
// query and the pushdown mode: each TableScan sits under exactly one
// Exchange, every Join's keys address columns of its inputs' schemas that
// pair up in kind, the result schema is the analyzed plan's, and taking a
// spine apart and stacking it again gives the same tree.
func checkPlan(analyzed, optimized plan.Node) error {
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
		for _, c := range n.Children() {
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
	return nil
}

// hiveJoins are the join shapes over the hive catalog (the golden table
// holds Q3 over it).
var hiveJoins = []string{
	fmt.Sprintf(joinProbeConjunct, "hive"),
	fmt.Sprintf(joinBuildConjunct, "hive"),
	fmt.Sprintf(joinBothConjuncts, "hive"),
}

func TestOptimizedPlanInvariants(t *testing.T) {
	f := newPlanFixture(t)
	sqls := append([]string(nil), hiveJoins...)
	for _, q := range planQueries {
		sqls = append(sqls, q.sql)
	}
	for _, sql := range sqls {
		for _, mode := range planModes {
			analyzed, optimized, err := f.planFor(sql, mode)
			if err != nil {
				t.Fatalf("%s [%s]: %v", sql, mode, err)
			}
			if err := checkPlan(analyzed, optimized); err != nil {
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
	for _, sql := range hiveJoins {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		for _, mode := range planModes {
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
			if err := checkPlan(analyzed, optimized); err != nil {
				t.Fatalf("%q [%s]: %v", sql, mode, err)
			}
		}
	})
}

// FuzzSubstraitUnmarshal feeds the plan decoder — which on a storage node
// reads bytes from any client — the wire form of every pushdown the golden
// table produces, each join's probe scan once more with a build-side bloom
// filter attached, and what the fuzzer makes of them. The decoder may
// reject its input; it must not panic, and a plan it accepts is backed by
// its input (re-encoding it takes no more than a small multiple of the
// bytes it came from — nothing was sized from a length field) and
// re-encodes to a fixed point.
func FuzzSubstraitUnmarshal(f *testing.F) {
	fx := newPlanFixture(f)
	seed := func(h *ocs.Handle) {
		ir, err := ocs.BuildSubstrait(h, h.Table.Objects[0])
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
	f.Fuzz(func(t *testing.T, in []byte) {
		p, err := substrait.Unmarshal(in)
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
	})
}
