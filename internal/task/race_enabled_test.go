//go:build race

package task

// The race detector's instrumentation allocates on code paths that are
// allocation-free in normal builds, so the AllocsPerRun regression
// tests only run without -race.
const raceEnabled = true
