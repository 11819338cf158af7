// Package lin holds the checks of the LIN baseline (Maehara, Kusumoto &
// Kawarabayashi, "Efficient SimRank computation via linearization", 2014)
// that the paper compares CloudWalker against.
//
// LIN has no engine of its own: the comparison table's LIN column
// (internal/bench) builds internal/linserve's engine with exact queries
// and an optional build-time prune. The tests here pin that configuration
// against exact SimRank, independently of the serving-side tests in
// linserve.
package lin
