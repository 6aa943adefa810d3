package delivery

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// growable sums the capacity of every slice and the size of every map in v
// (Metrics holds its accumulators by value): what a flush could be growing.
func growable(v reflect.Value) int {
	switch v.Kind() {
	case reflect.Slice:
		n := v.Cap()
		for i := 0; i < v.Len(); i++ {
			n += growable(v.Index(i))
		}
		return n
	case reflect.Map:
		return v.Len()
	case reflect.Array:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += growable(v.Index(i))
		}
		return n
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += growable(v.Field(i))
		}
		return n
	}
	return 0
}

// TestFlushAccountingFixedSize: a live gs-server keeps one Metrics for its
// whole lifetime and every worker accounts every flush into it, so nothing a
// flush records may grow (the batch-size histogram once kept a sample per
// flush) or allocate.
func TestFlushAccountingFixedSize(t *testing.T) {
	const flushes = 10000
	p, err := NewPipeline(Config{Shards: 1, BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.Attach("c", func(string, []Notification) error { return nil })
	m := reflect.ValueOf(p.Metrics()).Elem()
	n := testNotification("c", 0)
	if err := p.Enqueue(n); err != nil { // first flush: warm anything lazily built
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	before := growable(m)
	for i := 0; i < flushes; i++ {
		if err := p.Enqueue(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if got := p.Metrics().Batches.Value(); got != flushes+1 {
		t.Fatalf("Batches = %d, want %d", got, flushes+1)
	}
	if after := growable(m); after != before {
		t.Errorf("Metrics grew by %d slice/map slots over %d flushes", after-before, flushes)
	}
	if got := p.Metrics().Batched.Value(); got != flushes+1 {
		t.Errorf("Batched = %d, want %d", got, flushes+1)
	}
	if allocs := testing.AllocsPerRun(1000, func() { p.Metrics().noteFlush(32, time.Millisecond) }); allocs != 0 {
		t.Errorf("flush accounting allocates %v per flush, want 0", allocs)
	}
}
