//go:build race

package wls

func init() { raceEnabled = true }
