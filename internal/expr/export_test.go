package expr

import "prestocs/internal/column"

// EvalRows is Eval into a new slice of results. Under a nil selection
// each computed result is copied out of the Projection's storage, so the
// caller may keep it past the next call.
func (p *Projection) EvalRows(page *column.Page, sel []int) ([]*column.Vector, error) {
	out := make([]*column.Vector, len(p.outs))
	if err := p.Eval(out, page, sel); err != nil || sel != nil {
		return out, err
	}
	for i, c := range p.outs {
		if c >= p.width {
			out[i] = out[i].Slice(0, out[i].Len())
		}
	}
	return out, nil
}
