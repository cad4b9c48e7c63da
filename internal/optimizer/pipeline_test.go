package optimizer_test

import (
	"fmt"
	"testing"

	"prestocs/internal/engine"
	"prestocs/internal/plan"
)

// checkPlan asserts what every optimized plan must satisfy whatever the
// query and the pushdown mode: each TableScan sits under exactly one
// Exchange, the result schema is the analyzed plan's, and taking a spine
// apart and stacking it again gives the same tree.
func checkPlan(analyzed, optimized plan.Node) error {
	var walk func(n plan.Node, exchanges int) error
	walk = func(n plan.Node, exchanges int) error {
		switch n.(type) {
		case *plan.Exchange:
			exchanges++
		case *plan.TableScan:
			if exchanges != 1 {
				return fmt.Errorf("%s sits under %d exchanges", n.Describe(), exchanges)
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

// hiveJoins are the join shapes over the hive catalog; the golden table
// cannot hold them (they did not plan at the commit it was generated at).
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
