package ocs

import (
	"fmt"

	"prestocs/internal/engine"
	"prestocs/internal/expr"
	"prestocs/internal/metastore"
	"prestocs/internal/plan"
	"prestocs/internal/types"
)

// SplitsWithStats implements engine.SplitSource: one split per object,
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
		if objectMayMatch(h.Table.ObjectStats[obj], base, ranges) {
			splits = append(splits, engine.Split{Object: obj, Index: i})
		}
	}
	if pruned := len(h.Table.Objects) - len(splits); pruned > 0 && stats != nil {
		stats.AddSplitsPruned(int64(pruned))
	}
	return splits, nil
}

// objectMayMatch tests one object's column statistics (nil when the
// object has none) against the filter's range analysis; any gap in the
// statistics keeps the object. Filter ordinals refer to the projected base
// scan schema, whose column names key the per-object stats.
func objectMayMatch(objStats map[string]metastore.ColumnStats, base *types.Schema, ranges expr.Ranges) bool {
	if ranges.Never {
		return false
	}
	for col, cr := range ranges.Cols {
		if col < 0 || col >= base.Len() {
			continue
		}
		cs, ok := objStats[base.Columns[col].Name]
		if !ok || cs.NumValues == 0 {
			// Stats absent or written without value counts: keep.
			continue
		}
		hasNull := cs.NullCount > 0
		hasNonNull := cs.NumValues > cs.NullCount
		if !cr.MayMatch(cs.Min, cs.Max, hasNull, hasNonNull) {
			return false
		}
	}
	return true
}
