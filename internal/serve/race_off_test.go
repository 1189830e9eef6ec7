//go:build !race

package serve

// raceEnabled reports a -race build, whose instrumentation makes
// allocation counts and simulation speed meaningless for budget tests.
const raceEnabled = false
