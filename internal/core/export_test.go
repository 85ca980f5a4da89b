package core

// RunChecked exposes runChecked, the oracle-checked run, to this
// directory's external tests: they may import the energy model, which
// imports this package.
var RunChecked = runChecked
