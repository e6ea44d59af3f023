package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"matstore"
	"matstore/internal/service"
	"matstore/internal/tpch"
)

// Request classes of the shared generator's mix.
type class int

const (
	clsSelect class = iota // 50%: lineitem selection
	clsAgg                 // 30%: lineitem group-by aggregation
	clsJoin                // 20%: orders ⋈ customer
	numClasses
)

func (c class) String() string {
	return [...]string{"select", "agg", "join"}[c]
}

var (
	strategies      = []string{"em-pipelined", "em-parallel", "lm-pipelined", "lm-parallel"}
	rightStrategies = []string{"right-materialized", "right-multicolumn", "right-singlecolumn"}
	groupBys        = []string{tpch.ColRetflag, tpch.ColLinenum}
	aggFuncs        = []string{"sum", "avg", "max", "count"}
)

// shape is one request of the mix. Every field but strat is part of the
// logical query; strat only picks how the engine executes it, so all
// strategies of one logical query share one reference answer.
type shape struct {
	cls      class
	shipdate int64 // select, agg: shipdate < shipdate
	linenum  int64 // select: linenum < linenum
	groupBy  string
	agg      string
	custkey  int64 // join: custkey < custkey
	strat    int   // index into strategies (select, agg) or rightStrategies (join)
}

// logicalKey identifies the answer: equal keys have equal results.
func (s shape) logicalKey() string {
	switch s.cls {
	case clsSelect:
		return fmt.Sprintf("s|%d|%d", s.shipdate, s.linenum)
	case clsAgg:
		return fmt.Sprintf("a|%d|%s|%s", s.shipdate, s.groupBy, s.agg)
	default:
		return fmt.Sprintf("j|%d", s.custkey)
	}
}

// key identifies the served shape (the logical query plus its strategy),
// which is what the server's result and plan caches key on.
func (s shape) key() string { return fmt.Sprintf("%s|%d", s.logicalKey(), s.strat) }

// numStrats is the number of strategies the shape's class can run under.
func (s shape) numStrats() int {
	if s.cls == clsJoin {
		return len(rightStrategies)
	}
	return len(strategies)
}

// rotated returns the shape under the strategy lap steps further on: the
// same logical query (same answer) as a different served shape.
func (s shape) rotated(lap int) shape {
	s.strat = (s.strat + lap) % s.numStrats()
	return s
}

func (s shape) path() string {
	if s.cls == clsJoin {
		return "/join"
	}
	return "/query"
}

// request is the HTTP body of the shape, typed as the service decodes it.
func (s shape) request() any {
	switch s.cls {
	case clsSelect:
		return service.QueryRequest{
			Projection: tpch.LineitemProj,
			Output:     []string{tpch.ColShipdate, tpch.ColLinenum},
			Where: []string{
				fmt.Sprintf("%s<%d", tpch.ColShipdate, s.shipdate),
				fmt.Sprintf("%s<%d", tpch.ColLinenum, s.linenum),
			},
			Strategy: strategies[s.strat],
		}
	case clsAgg:
		return service.QueryRequest{
			Projection: tpch.LineitemProj,
			Where:      []string{fmt.Sprintf("%s<%d", tpch.ColShipdate, s.shipdate)},
			GroupBy:    s.groupBy,
			AggCol:     tpch.ColQuantity,
			Agg:        s.agg,
			Strategy:   strategies[s.strat],
		}
	default:
		return service.JoinRequest{
			Left: tpch.OrdersProj, Right: tpch.CustomerProj,
			LeftKey: tpch.ColCustkey, RightKey: tpch.ColCustkey,
			Where:         []string{fmt.Sprintf("%s<%d", tpch.ColCustkey, s.custkey)},
			LeftOutput:    []string{tpch.ColOrderShipdate},
			RightOutput:   []string{tpch.ColNationcode},
			RightStrategy: rightStrategies[s.strat],
		}
	}
}

func (s shape) body() []byte {
	b, err := json.Marshal(s.request())
	if err != nil {
		panic(err) // plain structs of strings and ints always marshal
	}
	return b
}

// selectQuery is the library form of a select or agg shape, with the filter
// list the service parses out of the HTTP body.
func (s shape) selectQuery() (matstore.Query, matstore.Strategy) {
	q := matstore.Query{
		Filters: []matstore.Filter{{Col: tpch.ColShipdate, Pred: matstore.LessThan(s.shipdate)}},
	}
	if s.cls == clsSelect {
		q.Output = []string{tpch.ColShipdate, tpch.ColLinenum}
		q.Filters = append(q.Filters, matstore.Filter{Col: tpch.ColLinenum, Pred: matstore.LessThan(s.linenum)})
	} else {
		q.GroupBy, q.AggCol = s.groupBy, tpch.ColQuantity
		fn, err := matstore.ParseAggFunc(s.agg)
		if err != nil {
			panic(err) // aggFuncs holds valid names only
		}
		q.Agg = fn
	}
	st, err := matstore.ParseStrategy(strategies[s.strat])
	if err != nil {
		panic(err)
	}
	return q, st
}

// joinQuery is the library form of a join shape.
func (s shape) joinQuery() (matstore.JoinQuery, matstore.RightStrategy) {
	q := matstore.JoinQuery{
		LeftKey: tpch.ColCustkey, RightKey: tpch.ColCustkey,
		LeftPred:    matstore.LessThan(s.custkey),
		LeftOutput:  []string{tpch.ColOrderShipdate},
		RightOutput: []string{tpch.ColNationcode},
	}
	rs, err := matstore.ParseRightStrategy(rightStrategies[s.strat])
	if err != nil {
		panic(err)
	}
	return q, rs
}

// mixPattern fixes the class of every position of the stream in the mix's
// 5:3:2 proportions, so every prefix of a run has the same mix. On hot the
// position is the Zipf rank; this interleaving leaves each class a
// result-cache hit share near 0.7 at the default cache size, clear of 0.5,
// where a class's p50 would flip between a hit and a miss from seed to seed.
var mixPattern = []class{clsSelect, clsAgg, clsJoin, clsAgg, clsJoin, clsSelect, clsAgg, clsSelect, clsSelect, clsSelect}

// Irrational steps of the additive recurrences the generator draws from.
const (
	phi   = 0.6180339887498949 // golden ratio - 1
	sqrt2 = 0.4142135623730951 // √2 - 1
	sqrt3 = 0.7320508075688772 // √3 - 1
)

// generator is the one request generator every workload draws from: 50%
// selections (shipdate<[1,2526], linenum<[2,8]), 30% aggregations (group by
// returnflag or linenum; sum, avg, max or count of quantity;
// shipdate<[1,2526]) and 20% joins (custkey<[1,customers]), each under one
// of its class's strategies. Within a class, the j-th shape's range
// fraction, variant and strategy follow additive recurrences (j·φ, j·(√2-1)
// and j·(√3-1) mod 1) from offsets drawn from the seed: every run of any
// length covers each class's parameter space evenly, so two seeds differ in
// their constants and data but not in how much work their requests ask for.
type generator struct {
	r         *rand.Rand
	customers int64
	pos       int             // position in mixPattern
	drawn     [numClasses]int // shapes drawn per class
	off       [numClasses][3]float64
}

func newGenerator(seed uint64, stream uint64, customers int64) *generator {
	g := &generator{r: rand.New(rand.NewPCG(seed, stream)), customers: customers}
	for c := range g.off {
		for k := range g.off[c] {
			g.off[c][k] = g.r.Float64()
		}
	}
	return g
}

// shapeAt returns a shape of class c whose range parameter sits at fraction
// f in [0,1) of the class's range; variant picks the linenum bound, the
// grouping column and the aggregate function, strat the strategy.
func (g *generator) shapeAt(c class, f float64, variant, strat int) shape {
	s := shape{cls: c, strat: strat}
	switch c {
	case clsSelect:
		s.shipdate = 1 + int64(f*tpch.ShipdateDays)
		s.linenum = 2 + int64(variant%tpch.LinenumMax)
	case clsAgg:
		s.shipdate = 1 + int64(f*tpch.ShipdateDays)
		s.groupBy = groupBys[variant%len(groupBys)]
		s.agg = aggFuncs[(variant/len(groupBys))%len(aggFuncs)]
	default:
		s.custkey = 1 + int64(f*float64(g.customers))
	}
	return s
}

// variants is a multiple of every variant choice's count (7 linenum bounds;
// 2 groupings × 4 functions), so a uniform variant is uniform over each.
const variants = tpch.LinenumMax * 8

func frac(x float64) float64 { return x - math.Floor(x) }

func (g *generator) next() shape {
	c := mixPattern[g.pos%len(mixPattern)]
	g.pos++
	j := float64(g.drawn[c])
	g.drawn[c]++
	o := g.off[c]
	n := shape{cls: c}.numStrats()
	return g.shapeAt(c, frac(o[0]+j*phi), int(frac(o[1]+j*sqrt2)*variants), int(frac(o[2]+j*sqrt3)*float64(n)))
}

// fresh returns n shapes none of which repeats a served shape already in
// seen (seen is updated): the analytic stream, where no request can be
// answered from a cache.
func (g *generator) fresh(n int, seen map[string]bool) []shape {
	out := make([]shape, 0, n)
	for len(out) < n {
		s := g.next()
		if k := s.key(); !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

// hotShapes returns the hot workload's n distinct shapes in Zipf rank order.
// The class of each rank follows the mix's 5:3:2 proportions in a fixed
// interleaving, and each shape's range fraction and strategy are stratified
// over its class (the seed places it inside its stratum). The seed changes
// the data and every constant, but not how much result, and so how much
// cache space, each rank needs — otherwise 64 draws would let the seed alone
// decide whether the top-ranked shapes fit the result cache.
func (g *generator) hotShapes(n int) []shape {
	var per [numClasses]int
	for i := 0; i < n; i++ {
		per[mixPattern[i%len(mixPattern)]]++
	}
	var strata [numClasses][]int
	for c := range strata {
		strata[c] = goldenOrder(per[c])
	}
	var seen [numClasses]int
	out := make([]shape, 0, n)
	for i := 0; i < n; i++ {
		c := mixPattern[i%len(mixPattern)]
		j := seen[c]
		seen[c]++
		f := (float64(strata[c][j]) + g.r.Float64()) / float64(per[c])
		out = append(out, g.shapeAt(c, f, j, j%shape{cls: c}.numStrats()))
	}
	return out
}

// goldenOrder maps j in [0,n) to a stratum in [0,n): the rank of j·φ mod 1
// among all of them, so consecutive j land far apart across the range.
func goldenOrder(n int) []int {
	idx := make([]int, n)
	for j := range idx {
		idx[j] = j
	}
	sort.Slice(idx, func(a, b int) bool { return frac(float64(idx[a])*phi) < frac(float64(idx[b])*phi) })
	out := make([]int, n)
	for rank, j := range idx {
		out[j] = rank
	}
	return out
}

// zipfStream returns n indices into a rank-ordered shape list of size m,
// drawn from Zipf(s=1.1).
func (g *generator) zipfStream(n, m int) []int {
	z := rand.NewZipf(g.r, 1.1, 1, uint64(m-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}
