//go:build !race

package sortmerge

const raceEnabled = false
