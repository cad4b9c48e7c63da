package engine

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"prestocs/internal/column"
	"prestocs/internal/plan"
	"prestocs/internal/types"
)

// pagedConnector is a memConnector whose every split emits pagesPerSplit
// one-row pages, row ids numbered split by split.
func pagedConnector(splits, pagesPerSplit int) *memConnector {
	schema := types.NewSchema(types.Column{Name: "id", Type: types.Int64})
	c := &memConnector{name: "mem", schema: schema, objects: map[string][]*column.Page{}}
	id := int64(0)
	for s := 0; s < splits; s++ {
		pages := make([]*column.Page, pagesPerSplit)
		for p := range pages {
			pages[p] = column.NewPage(schema)
			pages[p].AppendRow(types.IntValue(id))
			id++
		}
		c.objects[fmt.Sprintf("obj%d", s)] = pages
	}
	return c
}

// waitGoroutines waits up to a second for the goroutine count to fall back
// to before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			stacks := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Drain, %d before:\n%s",
				runtime.NumGoroutine(), before, stacks[:runtime.Stack(stacks, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLeafStageStaticAssignmentWindow drives the leaf stage's static split
// assignment — worker w of W runs splits w, w+W, … — through its per-split
// window: split j starts only once split j − 2W has been drained. With
// splits that emit more pages than their queue holds, workers block on
// full queues and the window decides who may run; with one-page splits
// they finish splits the consumer has not reached, which is where a
// shared token count deadlocks (the others hold every token while the
// owner of the lowest undrained split waits for one). At every worker
// count and split count (16 splits give a shared token count enough
// splits to lose) the stage must deliver pages in split order, an
// early-closed stage must drain, every source opened must be closed, and
// no goroutine may outlive Drain.
func TestLeafStageStaticAssignmentWindow(t *testing.T) {
	for _, pagesPerSplit := range []int{3 * splitQueuePages, 1} {
		for _, workers := range []int{1, 3, 8} {
			for _, splits := range []int{0, 1, 7, 16} {
				t.Run(fmt.Sprintf("pages=%d/workers=%d/splits=%d", pagesPerSplit, workers, splits), func(t *testing.T) {
					testLeafStageWindow(t, workers, splits, pagesPerSplit)
				})
			}
		}
	}
}

func testLeafStageWindow(t *testing.T, workers, splits, pagesPerSplit int) {
	conn := pagedConnector(splits, pagesPerSplit)
	e := New()
	e.Workers = workers
	e.AddConnector(conn)
	_, leaf, err := stages(&plan.Exchange{Input: &plan.TableScan{Catalog: "mem", Table: "t", Handle: &memHandle{conn: conn}}})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	// consume runs fn against the deadline a deadlocked stage would miss.
	consume := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() {
			defer close(done)
			fn()
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			stacks := make([]byte, 1<<20)
			t.Fatalf("%s: deadlocked:\n%s", what, stacks[:runtime.Stack(stacks, true)])
		}
	}

	stage, err := e.startLeafStage(context.Background(), leaf, &QueryStats{})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int64
	consume("full read", func() {
		for {
			page, _ := stage.Next()
			if page == nil {
				return
			}
			// A slow consumer: workers fill their queues and wait.
			time.Sleep(10 * time.Microsecond)
			ids = append(ids, page.Vectors[0].Ints...)
		}
	})
	if err := stage.Err(); err != nil {
		t.Fatal(err)
	}
	if len(ids) != splits*pagesPerSplit {
		t.Fatalf("got %d rows, want %d", len(ids), splits*pagesPerSplit)
	}
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("row %d has id %d: pages out of split order", i, id)
		}
	}

	// Early close: the consumer takes one page and drains.
	stage, err = e.startLeafStage(context.Background(), leaf, &QueryStats{})
	if err != nil {
		t.Fatal(err)
	}
	var first *column.Page
	consume("early close", func() {
		time.Sleep(time.Millisecond) // workers run ahead as far as the window lets them
		first, _ = stage.Next()
		stage.Drain()
	})
	if splits > 0 && (first == nil || first.Vectors[0].Ints[0] != 0) {
		t.Fatalf("first page of an early-closed stage = %v", first)
	}
	if err := stage.Err(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
	if created, closed := conn.created.Load(), conn.closed.Load(); created != closed || created != int64(2*splits) {
		t.Errorf("opened %d sources, closed %d, want %d each", created, closed, 2*splits)
	}
}
