// Package mutexbyvalue is the golden fixture for the mutexbyvalue analyzer.
// Only the by-value result carries a want: `go vet`'s copylocks pass reports
// every other copy below, so grovevet must stay silent on those lines.
package mutexbyvalue

import (
	"sync"
	"sync/atomic"
)

type Guarded struct {
	mu sync.Mutex
	n  int
}

type Counted struct {
	hits atomic.Int64
}

func use(int) {}

func ptrParamOK(g *Guarded) int { return g.n }

func constructOK() *Guarded {
	g := Guarded{}
	return &g
}

func byValueParam(g Guarded) int { return g.n }

func byValueResult() Guarded { // want "result passes a lock by value"
	return Guarded{}
}

func derefCopy(p *Guarded) {
	local := *p
	use(local.n)
}

func aliasCopy(p *Guarded) {
	tmp := *p
	other := tmp
	use(other.n)
}

func rangeCopy(gs []Guarded) int {
	total := 0
	for _, g := range gs {
		total += g.n
	}
	return total
}

func passByValue(p *Guarded) int {
	return byValueParam(*p)
}

func atomicCopy(c *Counted) {
	snapshot := *c
	use(int(snapshot.hits.Load()))
}
