//go:build race

package gridse_test

func init() { raceEnabled = true }
