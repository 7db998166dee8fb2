//go:build race

package kernelbench

func init() { raceEnabled = true }
