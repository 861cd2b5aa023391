//go:build !race

package scenario

// raceDetector reports a build with the race detector (see race_test.go).
const raceDetector = false
