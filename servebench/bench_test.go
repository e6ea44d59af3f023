package main

import (
	"reflect"
	"testing"
	"time"
)

func TestGeneratorIsSeededAndMixed(t *testing.T) {
	draw := func(seed uint64) []shape {
		return newGenerator(seed, 1, 15000).fresh(1000, map[string]bool{})
	}
	a, b := draw(7), draw(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request lists")
	}
	if reflect.DeepEqual(a, draw(8)) {
		t.Fatal("different seeds gave the same request list")
	}
	var per [numClasses]int
	seen := map[string]bool{}
	for _, s := range a {
		per[s.cls]++
		if seen[s.key()] {
			t.Fatalf("shape %s repeats in a fresh list", s.key())
		}
		seen[s.key()] = true
		if s.cls != clsJoin && (s.shipdate < 1 || s.shipdate > 2526) {
			t.Fatalf("shipdate bound %d out of range", s.shipdate)
		}
		if s.cls == clsJoin && (s.custkey < 1 || s.custkey > 15000) {
			t.Fatalf("custkey bound %d out of range", s.custkey)
		}
	}
	if per != [numClasses]int{500, 300, 200} {
		t.Fatalf("class mix %v, want 500/300/200", per)
	}
}

func TestHotShapesAreDistinct(t *testing.T) {
	shapes := newGenerator(3, 2, 15000).hotShapes(hotShapes)
	seen := map[string]bool{}
	for _, s := range shapes {
		if seen[s.key()] {
			t.Fatalf("hot shape %s repeats", s.key())
		}
		seen[s.key()] = true
	}
}

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	r := newRecorder()
	id := r.reserve()
	r.finish(id, &span{Name: "coordinator", Start: 0, End: 100})
	r.add(&span{Name: "shard.0", Parent: id, Start: 10, End: 60})
	r.add(&span{Name: "shard.1", Parent: id, Start: 20, End: 70})
	r.add(&span{Name: "shard.0", Parent: id, Start: 80, End: 90})
	if got, want := r.selfTime(r.named("coordinator")[0]), time.Duration(100-60-10); got != want {
		t.Fatalf("self time %v, want %v", got, want)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 0.5); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := percentile(xs, 0.99); got != 5 {
		t.Fatalf("p99 = %v, want 5", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Fatalf("p50 of nothing = %v, want 0", got)
	}
}
