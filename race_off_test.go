//go:build !race

package kspot

const raceEnabled = false
