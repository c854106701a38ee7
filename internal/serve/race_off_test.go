//go:build !race

package serve

// raceEnabled reports whether the test binary was built with -race,
// whose instrumentation allocates and slows everything it touches.
const raceEnabled = false
