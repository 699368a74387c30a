//go:build race

package sssp

const raceEnabled = true
