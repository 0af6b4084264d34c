// Fixture: no path segment matches a modelled package, so maprange,
// nondetflow and eventorder all stay silent here no matter what the
// code does.
package plainpkg

import "time"

func hostTooling(m map[string]int) time.Time {
	for k, v := range m {
		println(k, v)
	}
	return time.Now()
}
