//go:build race

package experiments

// raceEnabled: the race detector slows every runner several times over,
// and the ledger's timing claims would then measure the detector.
const raceEnabled = true
