//go:build !race

package rpcnet

// poisonReleased is off outside race builds; see the race-tagged twin.
const poisonReleased, poisonByte = false, 0xDB
