package column

import (
	"math/rand"
	"reflect"
	"testing"

	"prestocs/internal/types"
)

func selTestPage(n int) *Page {
	s := types.NewSchema(
		types.Column{Name: "i", Type: types.Int64},
		types.Column{Name: "s", Type: types.String},
	)
	p := NewPage(s)
	for r := 0; r < n; r++ {
		iv := types.IntValue(int64(r))
		if r%5 == 0 {
			iv = types.NullValue(types.Int64)
		}
		p.AppendRow(iv, types.StringValue(string(rune('a'+r%26))))
	}
	return p
}

func TestMergeAndSubtractSel(t *testing.T) {
	from := []int{0, 1, 3, 4, 7, 9}
	left := []int{1, 4, 9}
	rest := SubtractSel(from, left)
	if !reflect.DeepEqual(rest, []int{0, 3, 7}) {
		t.Fatalf("SubtractSel = %v", rest)
	}
	// Merging a disjoint split restores the original.
	if got := MergeSel(left, rest); !reflect.DeepEqual(got, from) {
		t.Fatalf("MergeSel = %v, want %v", got, from)
	}
	if got := MergeSel(nil, rest); !reflect.DeepEqual(got, rest) {
		t.Errorf("MergeSel(nil, x) = %v", got)
	}
	if got := SubtractSel(from, nil); !reflect.DeepEqual(got, from) {
		t.Errorf("SubtractSel(x, nil) = %v", got)
	}
}

// TestFilterAllKeptReturnsSamePage: the fast path must hand the input back
// untouched (same *Page, same *Vector buffers) when nothing is dropped: a
// full identity selection is zero-copy.
func TestFilterAllKeptReturnsSamePage(t *testing.T) {
	p := selTestPage(10)
	sel := make([]int, 10)
	for i := range sel {
		sel[i] = i
	}
	if got := p.FilterSel(sel); got != p {
		t.Error("Page.FilterSel with a full selection must return the page itself")
	}
}

// TestFilterSelMatchesFilter: FilterSel keeps the selected rows, each
// value and NULL as the input row has it.
func TestFilterSelMatchesFilter(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 30; iter++ {
		n := 1 + r.Intn(60)
		p := selTestPage(n)
		var sel []int
		for i := 0; i < n; i++ {
			if r.Intn(2) == 0 {
				sel = append(sel, i)
			}
		}
		b := p.FilterSel(sel)
		if b.NumRows() != len(sel) {
			t.Fatalf("FilterSel kept %d rows of a %d-row selection", b.NumRows(), len(sel))
		}
		for i, row := range sel {
			for c := range p.Vectors {
				av, bv := p.Vectors[c].Value(row), b.Vectors[c].Value(i)
				if av.Null != bv.Null || (!av.Null && types.Compare(av, bv) != 0) {
					t.Fatalf("row %d col %d: %s vs %s", i, c, av, bv)
				}
			}
		}
	}
}

func TestGatherPreallocates(t *testing.T) {
	p := selTestPage(100)
	sel := []int{3, 0, 99, 50, 50} // gather may repeat and reorder
	g := p.Gather(sel)
	if g.NumRows() != len(sel) {
		t.Fatalf("gather rows = %d", g.NumRows())
	}
	for c := range g.Vectors {
		v := g.Vectors[c]
		switch v.Kind {
		case types.Int64:
			if cap(v.Ints) != len(sel) {
				t.Errorf("ints cap = %d, want exactly %d (preallocated)", cap(v.Ints), len(sel))
			}
		case types.String:
			if cap(v.Strings) != len(sel) {
				t.Errorf("strings cap = %d, want exactly %d (preallocated)", cap(v.Strings), len(sel))
			}
		}
	}
	if g.Vectors[0].Value(2).I != 99 || !g.Vectors[0].Value(1).Null {
		t.Errorf("gather values wrong: %v", g.Vectors[0])
	}
}

func TestReserveAvoidsRegrowth(t *testing.T) {
	p := NewPage(types.NewSchema(types.Column{Name: "i", Type: types.Int64}))
	p.Vectors[0].Reserve(1000)
	base := &p.Vectors[0].Ints
	p.Vectors[0].Reserve(500) // already covered: must not shrink or move
	if cap(*base) < 1000 {
		t.Fatalf("cap = %d after Reserve(1000)", cap(*base))
	}
	before := cap(p.Vectors[0].Ints)
	for i := 0; i < 1000; i++ {
		p.AppendRow(types.IntValue(int64(i)))
	}
	if cap(p.Vectors[0].Ints) != before {
		t.Errorf("append regrew a reserved vector: cap %d -> %d", before, cap(p.Vectors[0].Ints))
	}
	// Nulls allocated later must still track length correctly.
	p.AppendRow(types.NullValue(types.Int64))
	if p.NumRows() != 1001 || !p.Vectors[0].IsNull(1000) {
		t.Errorf("rows = %d, null = %v", p.NumRows(), p.Vectors[0].IsNull(1000))
	}
}
