// Package service is the singlethread negative fixture: the serving
// layer owns concurrency, so nothing here is flagged.
package service

import "sync"

// Each runs the jobs side by side.
func Each(jobs []func()) {
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j()
		}()
	}
	wg.Wait()
}
