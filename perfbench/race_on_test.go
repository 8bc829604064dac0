//go:build race

package main

// raceEnabled reports a race-detector build, whose slowdown makes the
// open-loop generator run late.
const raceEnabled = true
