package ocs

import (
	"fmt"

	"prestocs/internal/engine"
	"prestocs/internal/expr"
	"prestocs/internal/plan"
)

// SplitsWithStats implements engine.Connector: one split per object,
// with zone-map pruning. When the handle carries a pushed-down filter and
// the metastore recorded per-object column statistics, objects whose stats
// prove the filter false are dropped before they are ever scheduled —
// the first of the three pruning levels (split, row group, chunk page
// all share the same expr range analysis). Missing statistics — an
// object without an entry, a column without stats, or a filter column
// outside the projected schema — always keep the split.
func (c *Connector) SplitsWithStats(handle plan.TableHandle, stats *engine.ScanStats) ([]engine.Split, error) {
	h, ok := handle.(*Handle)
	if !ok {
		return nil, fmt.Errorf("ocs: foreign handle %T", handle)
	}
	var ranges expr.Ranges // unconstrained: every object may match
	if h.Push != nil && len(h.Table.ObjectStats) > 0 {
		ranges = expr.AnalyzeRanges(h.Push.Filter)
	}
	base := h.baseScanSchema()
	splits := make([]engine.Split, 0, len(h.Table.Objects))
	for i, obj := range h.Table.Objects {
		// Filter ordinals refer to the projected base scan schema, whose
		// column names key the per-object stats. A column without stats,
		// or whose value count was not recorded, keeps the object.
		if ranges.MayMatch(func(col int) (expr.ZoneMap, bool) {
			if col < 0 || col >= base.Len() {
				return expr.ZoneMap{}, false
			}
			cs, ok := h.Table.ObjectStats[obj][base.Columns[col].Name]
			return cs.ZoneMap, ok && cs.NumValues > 0
		}) {
			splits = append(splits, engine.Split{Object: obj, Index: i})
		}
	}
	if pruned := len(h.Table.Objects) - len(splits); pruned > 0 {
		stats.AddSplitsPruned(int64(pruned))
	}
	return splits, nil
}
