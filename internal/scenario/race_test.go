//go:build race

package scenario

// raceDetector reports a build with the race detector, whose runtime
// allocates on the program's account: byte counts taken under it are not
// the program's own.
const raceDetector = true
