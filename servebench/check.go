package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"matstore"
	"matstore/internal/tpch"
)

// shownRows is how many rows a served response carries when the request
// sets no limit (service.defaultRowLimit).
const shownRows = 100

// answer is what a correct reply must contain: the full result's row count
// and checksum (the sum of every output value), its columns and its first
// rows. Replies decode into it directly.
type answer struct {
	Columns  []string  `json:"columns"`
	Rows     [][]int64 `json:"rows"`
	RowCount int       `json:"row_count"`
	Checksum int64     `json:"checksum"`
}

// answerOf is the answer a served reply of res must carry.
func answerOf(res *matstore.Result) *answer {
	a := &answer{Columns: res.Columns, RowCount: res.NumRows()}
	for _, col := range res.Cols {
		for _, v := range col {
			a.Checksum += v
		}
	}
	for i := 0; i < a.RowCount && i < shownRows; i++ {
		a.Rows = append(a.Rows, res.Row(i))
	}
	return a
}

// reference computes the answers of every logical query among shapes with
// serial (parallelism 1) library calls on the unsharded dataset. One fixed
// strategy per class answers all strategies of a logical query, so the check
// is also a cross-strategy check.
type reference struct {
	db      *matstore.DB
	answers map[string]*answer
}

func newReference(db *matstore.DB) *reference {
	return &reference{db: db, answers: map[string]*answer{}}
}

// add computes the answers of the shapes' logical queries not yet known,
// one query per CPU at a time (each still executes at parallelism 1).
func (r *reference) add(shapes []shape) error {
	var todo []shape
	for _, s := range shapes {
		k := s.logicalKey()
		if _, ok := r.answers[k]; !ok {
			r.answers[k] = nil
			todo = append(todo, s)
		}
	}
	answers := make([]*answer, len(todo))
	errs := make([]error, len(todo))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(todo); i = int(next.Add(1) - 1) {
				answers[i], errs[i] = r.compute(todo[i])
			}
		}()
	}
	wg.Wait()
	for i, s := range todo {
		if errs[i] != nil {
			return fmt.Errorf("reference %s: %w", s.logicalKey(), errs[i])
		}
		r.answers[s.logicalKey()] = answers[i]
	}
	return nil
}

func (r *reference) compute(s shape) (*answer, error) {
	var res *matstore.Result
	var err error
	if s.cls == clsJoin {
		q, _ := s.joinQuery()
		q.Parallelism = 1
		res, _, err = r.db.Join(tpch.OrdersProj, tpch.CustomerProj, q, matstore.RightMaterialized)
	} else {
		q, _ := s.selectQuery()
		q.Parallelism = 1
		res, _, err = r.db.Select(tpch.LineitemProj, q, matstore.LMPipelined)
	}
	if err != nil {
		return nil, err
	}
	return answerOf(res), nil
}

// verify checks one reply body against the reference answer of s and
// reports whether the server answered it from its result cache (reported,
// not checked: a hit must answer the same).
func (r *reference) verify(s shape, body []byte) (bool, error) {
	var got struct {
		answer
		ResultCacheHit bool `json:"result_cache_hit"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return false, fmt.Errorf("%s: undecodable reply: %w", s.key(), err)
	}
	return got.ResultCacheHit, r.compare(s, &got.answer)
}

// compare checks an answer against the reference answer of s.
func (r *reference) compare(s shape, got *answer) error {
	a := r.answers[s.logicalKey()]
	if a == nil {
		return fmt.Errorf("no reference for %s", s.logicalKey())
	}
	switch {
	case got.RowCount != a.RowCount:
		return fmt.Errorf("%s: row_count %d, want %d", s.key(), got.RowCount, a.RowCount)
	case got.Checksum != a.Checksum:
		return fmt.Errorf("%s: checksum %d, want %d", s.key(), got.Checksum, a.Checksum)
	case !slices.Equal(got.Columns, a.Columns):
		return fmt.Errorf("%s: columns %v, want %v", s.key(), got.Columns, a.Columns)
	case !slices.EqualFunc(got.Rows, a.Rows, slices.Equal[[]int64]):
		return fmt.Errorf("%s: shown rows differ from the reference", s.key())
	}
	return nil
}
