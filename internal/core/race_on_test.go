//go:build race

package core

// raceEnabled marks binaries built with the race detector, which slows
// the simulator's rendering ~10×; long scenario sweeps shrink under it.
const raceEnabled = true
