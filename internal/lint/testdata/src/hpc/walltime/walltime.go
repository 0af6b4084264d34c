// Fixture for nondetflow's direct wall-clock and global-rand calls
// ("hpc" segment puts it in modelled scope).
package walltime

import (
	"math/rand"
	"time"
)

func wallClock() time.Time {
	time.Sleep(time.Millisecond) // want `wall-clock call time\.Sleep`
	t := time.Now()              // want `wall-clock call time\.Now`
	_ = time.Since(t)            // want `wall-clock call time\.Since`
	return t
}

func globalRand() int {
	rand.Shuffle(3, func(i, j int) {}) // want `global rand\.Shuffle`
	return rand.Intn(4)                // want `global rand\.Intn`
}

// seededRand is the approved pattern: an explicit source, methods on it.
func seededRand(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// pureTime constructs and converts times without reading the clock.
func pureTime() time.Duration {
	d := 5 * time.Second
	return time.Duration(d.Seconds())
}

func waivedNow() time.Time {
	//imclint:deterministic -- fixture: harness-side measurement, never feeds modelled state
	return time.Now()
}

func waivedSameLine() time.Time {
	return time.Now() //imclint:deterministic -- fixture: trailing waivers also attach
}
