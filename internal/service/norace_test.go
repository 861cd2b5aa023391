//go:build !race

package service

// raceDetector reports a build with the race detector (see race_test.go).
const raceDetector = false
