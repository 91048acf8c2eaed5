//go:build race

package sharqfec

func init() { raceDetector = true }
