// Package portfolio is the singlethread fixture: a planning-package
// segment, so goroutines and the packages that coordinate them are
// flagged.
package portfolio

import (
	"runtime" // want singlethread
	"sort"
	"sync"        // want singlethread
	"sync/atomic" // want singlethread
)

var races atomic.Int64

// Race runs the variants side by side: whichever finishes first wins.
func Race(variants []func() float64) float64 {
	races.Add(1)
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	out := make(chan float64, len(variants))
	var wg sync.WaitGroup
	for _, v := range variants {
		wg.Add(1)
		go func() { // want singlethread
			defer wg.Done()
			sem <- struct{}{}
			out <- v()
			<-sem
		}()
	}
	wg.Wait()
	return <-out
}

// Fold runs them in order on the caller's goroutine: other imports and
// plain calls are fine.
func Fold(variants []func() float64) float64 {
	scores := make([]float64, 0, len(variants))
	for _, v := range variants {
		scores = append(scores, v())
	}
	sort.Float64s(scores)
	return scores[len(scores)-1]
}

// Warm is an audited exception.
func Warm(f func()) {
	//adeptvet:allow singlethread fire-and-forget cache warm-up; no plan reads its result
	go f() // want singlethread suppressed
}
